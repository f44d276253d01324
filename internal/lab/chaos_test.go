package lab_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/spec"
	"repro/internal/warm"
)

// This file is the chaos harness (DESIGN.md §14): it drives a REAL labd
// process — the shipped binary, not an httptest shim — under labload
// traffic, kills it at a deterministic scheduled point via -faultpoints
// (the process SIGKILLs itself at the Nth hit of a named site, so the
// crash lands at exactly the same place every run), restarts it over the
// same store and journal, and asserts the crash-safety contract:
//
//  1. no accepted job is lost — every submission that got a 2xx before
//     the crash has a servable artifact after the restart;
//  2. artifacts are byte-identical to an uncrashed control run;
//  3. the restarted daemon's /metrics is consistent (scrapes clean,
//     journal counters present).
//
// Three schedules cover the three distinct crash windows: before the
// journal fsync (the durability point itself), mid-artifact-write (torn
// temp file on disk), and mid-measured-run (between progress
// checkpoints of a co-run cell).

// labdProc is one running labd child process.
type labdProc struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	exited chan error
}

// buildLabd compiles cmd/labd once into dir and returns the binary path.
func buildLabd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "labd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/labd")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build labd: %v\n%s", err, out)
	}
	return bin
}

// startLabd launches labd and waits for its "listening on" line to learn
// the resolved port (-addr 127.0.0.1:0).
func startLabd(t *testing.T, bin string, args ...string) *labdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &labdProc{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.stderr.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "labd: listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " ("); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	go func() { p.exited <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		select {
		case <-p.exited:
		case <-time.After(5 * time.Second):
		}
	})
	select {
	case addr := <-addrCh:
		p.url = "http://" + addr
	case err := <-p.exited:
		t.Fatalf("labd exited before listening: %v\n%s", err, p.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("labd never announced its address\n%s", p.stderr.String())
	}
	return p
}

// waitKilled blocks until the process dies by its own scheduled
// faultpoint (SIGKILL → exit code -1/137); a clean exit means the crash
// site was never reached and the scenario is broken.
func waitKilled(t *testing.T, p *labdProc) {
	t.Helper()
	select {
	case err := <-p.exited:
		if err == nil {
			t.Fatalf("labd exited cleanly; the faultpoint never fired\n%s", p.stderr.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("labd did not crash at its faultpoint\n%s", p.stderr.String())
	}
}

// submitAll posts each body sequentially (sequential submission is what
// makes the faultpoint hit-counts land on the same operation every run)
// and returns the keys the daemon acknowledged with a 2xx. Transport
// errors and non-2xx responses — the submission the daemon died on, and
// everything after — are expected, not failures.
func submitAll(t *testing.T, url string, bodies [][]byte) []string {
	t.Helper()
	var accepted []string
	client := &http.Client{Timeout: 10 * time.Second}
	for _, b := range bodies {
		resp, err := client.Post(url+"/v1/specs", "application/json", bytes.NewReader(b))
		if err != nil {
			continue // daemon died mid-request: this job was never acked
		}
		var st lab.JobStatus
		ok := resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK
		if ok && json.NewDecoder(resp.Body).Decode(&st) == nil {
			accepted = append(accepted, st.Key)
		}
		resp.Body.Close()
	}
	return accepted
}

// fetchArtifact polls GET /v1/artifacts/{key} until it serves, returning
// the payload bytes.
func fetchArtifact(t *testing.T, url, key string, deadline time.Time) []byte {
	t.Helper()
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/artifacts/" + key)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rerr == nil {
				return body
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("artifact %s never became servable: accepted job lost", key)
	return nil
}

// controlPayloads computes the uncrashed ground truth in-process: an
// isolated engine + store runs the same submissions through the same
// HTTP surface, and the artifact payload bytes are what the chaos run
// must reproduce exactly.
func controlPayloads(t *testing.T, bodies [][]byte) map[string][]byte {
	t.Helper()
	eng, store, err := lab.NewEngine(1, filepath.Join(t.TempDir(), "store"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, store, lab.Options{}).Handler())
	defer ts.Close()
	out := make(map[string][]byte)
	deadline := time.Now().Add(120 * time.Second)
	for _, b := range bodies {
		st := postSpec(t, ts, b)
		waitDone(t, ts, st.Key)
		out[st.Key] = fetchArtifact(t, ts.URL, st.Key, deadline)
	}
	return out
}

// scrapeMetrics asserts the restarted daemon's /metrics is consistent:
// it scrapes clean and carries the journal counters.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape /metrics: status=%s err=%v", resp.Status, err)
	}
	mets := string(raw)
	for _, m := range []string{"labd_journal_records_total", "labd_journal_syncs_total", "labd_journal_recovered_total", "labd_jobs{state=\"queued\"}"} {
		if !strings.Contains(mets, m) {
			t.Errorf("/metrics after restart missing %s", m)
		}
	}
	return mets
}

// corunSpec builds a real co-run cell submission (the long-running job
// whose measured window the mid-run schedule interrupts).
func corunSpec(t *testing.T) []byte {
	t.Helper()
	s := spec.MustNew(spec.CoRunSimParams{
		Mix: "mcf-solo", Apps: []spec.BenchRef{{Name: "mcf"}}, Cfg: warm.DefaultConfig(),
	})
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestChaosCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and crash-loops a real labd; skipped in -short")
	}
	bin := buildLabd(t, t.TempDir())

	loadBodies, err := lab.LoadSpecs(5, 1)
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name        string
		faultpoints string
		extraArgs   []string
		bodies      [][]byte
		// wantRecovered: the restart must re-arm at least one journaled
		// job (scenarios where a job is provably mid-flight at the crash).
		wantRecovered bool
	}{
		{
			// The daemon dies inside Journal.Accepted, after the record
			// write but before the fsync — the durability point itself.
			// Submissions acked earlier must survive; the one in flight
			// was never acked, so the client owns the retry.
			name:        "crash-before-journal-sync",
			faultpoints: "journal.accept=4",
			bodies:      loadBodies,
		},
		{
			// The daemon dies inside DiskBlob.Put, after writing the temp
			// file but before sync+rename: a torn write on disk. The
			// restart must clean the orphan and re-run the accepted job.
			name:        "crash-mid-artifact-write",
			faultpoints: "artifact.put=2",
			bodies:      loadBodies,
		},
		{
			// The daemon dies between progress checkpoints of a co-run
			// cell's measured window; the restart resumes the cell from
			// the journal (job) and the store (mid-run progress), and the
			// result must still be byte-identical to the control.
			name:          "crash-mid-measured-run",
			faultpoints:   "spec.progress=3",
			extraArgs:     []string{"-progress-every", "64"},
			bodies:        [][]byte{corunSpec(t)},
			wantRecovered: true,
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := controlPayloads(t, sc.bodies)
			storeDir := filepath.Join(t.TempDir(), "store")
			if err := os.MkdirAll(storeDir, 0o755); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-store", storeDir, "-workers", "1", "-faultpoints", sc.faultpoints}, sc.extraArgs...)

			victim := startLabd(t, bin, args...)
			accepted := submitAll(t, victim.url, sc.bodies)
			if len(accepted) == 0 {
				t.Fatalf("no submission was accepted before the crash\n%s", victim.stderr.String())
			}
			waitKilled(t, victim)

			// Restart over the same store + journal, faults disarmed.
			revived := startLabd(t, bin, append([]string{"-store", storeDir, "-workers", "1"}, sc.extraArgs...)...)
			deadline := time.Now().Add(120 * time.Second)
			for _, key := range accepted {
				got := fetchArtifact(t, revived.url, key, deadline)
				if !bytes.Equal(got, want[key]) {
					t.Errorf("artifact %s diverged from the uncrashed control run\n got  %.120s\n want %.120s", key, got, want[key])
				}
			}
			mets := scrapeMetrics(t, revived.url)
			if sc.wantRecovered && !strings.Contains(revived.stderr.String(), "recovered") {
				t.Errorf("restart recovered no journaled jobs; stderr:\n%s\nmetrics:\n%s", victim.stderr.String(), mets)
			}
		})
	}
}

// TestChaosRepeatedCrashes: the journal and store must survive more than
// one crash/restart cycle over the same state — each restart replays,
// compacts, re-arms, and makes progress (here: the daemon dies on its
// first artifact write twice in a row, then a clean run finishes the
// job).
func TestChaosRepeatedCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness builds and crash-loops a real labd; skipped in -short")
	}
	bin := buildLabd(t, t.TempDir())
	bodies, err := lab.LoadSpecs(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := controlPayloads(t, bodies)

	storeDir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		t.Fatal(err)
	}

	var accepted []string
	for round := 0; round < 2; round++ {
		victim := startLabd(t, bin, "-store", storeDir, "-workers", "1", "-faultpoints", "artifact.put=1")
		if got := submitAll(t, victim.url, bodies); round == 0 {
			if len(got) != 1 {
				t.Fatalf("round 0: accepted %d submissions, want 1", len(got))
			}
			accepted = got
		}
		// Round 1 needs no resubmission: the journal re-armed the job and
		// its re-execution crashes at the same site again.
		waitKilled(t, victim)
	}

	revived := startLabd(t, bin, "-store", storeDir, "-workers", "1")
	got := fetchArtifact(t, revived.url, accepted[0], time.Now().Add(120*time.Second))
	if !bytes.Equal(got, want[accepted[0]]) {
		t.Error("artifact diverged after two crash/restart cycles")
	}
	if !strings.Contains(revived.stderr.String(), "recovered 1 journaled job") {
		t.Errorf("final restart did not recover the job; stderr:\n%s", revived.stderr.String())
	}
}
