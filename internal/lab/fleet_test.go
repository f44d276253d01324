package lab_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
)

// startFleet boots an n-node in-process fleet with per-node temp stores.
func startFleet(t *testing.T, n int, opts lab.LocalFleetOptions) *lab.LocalFleet {
	t.Helper()
	dir := t.TempDir()
	opts.StoreDir = func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i)) }
	fl, err := lab.StartLocalFleet(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

func postSpecURL(t *testing.T, base string, body []byte) lab.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: status %d", base, resp.StatusCode)
	}
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDoneURL(t *testing.T, base, key string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + key + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != lab.StateDone {
		t.Fatalf("job %s on %s ended %s: %s", key, base, st.State, st.Error)
	}
}

// specOwnedBy searches labtest IDs until one's key rendezvous-hashes to
// the wanted node — how the tests pin which fleet member owns a job.
func specOwnedBy(t *testing.T, nodes []string, owner, prefix string) (body []byte, key string) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		sp := spec.MustNew(testParams{ID: fmt.Sprintf("%s-%d", prefix, i)})
		if lab.RendezvousOwner(nodes, sp.Key()) == owner {
			b, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			return b, sp.Key()
		}
	}
	t.Fatalf("no labtest spec owned by %s in 4096 tries", owner)
	return nil, ""
}

func fleetStatus(t *testing.T, base string) (executions uint64, stats lab.FleetStats) {
	t.Helper()
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Executions uint64          `json:"executions"`
		Fleet      *lab.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Fleet == nil {
		t.Fatalf("%s/v1/status has no fleet block", base)
	}
	return st.Executions, *st.Fleet
}

// TestRendezvousOwner pins the ownership function's three load-bearing
// properties: determinism independent of candidate order, a roughly even
// key distribution, and minimal disruption — removing one node reassigns
// only that node's keys.
func TestRendezvousOwner(t *testing.T) {
	nodes := []string{"http://n1:8080", "http://n2:8080", "http://n3:8080"}
	reversed := []string{nodes[2], nodes[1], nodes[0]}

	counts := map[string]int{}
	owners := map[string]string{}
	const keys = 300
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("%064x", i*7919)
		o := lab.RendezvousOwner(nodes, k)
		if ro := lab.RendezvousOwner(reversed, k); ro != o {
			t.Fatalf("owner depends on candidate order: %s vs %s", o, ro)
		}
		counts[o]++
		owners[k] = o
	}
	for _, n := range nodes {
		if counts[n] < keys/10 {
			t.Errorf("node %s owns %d/%d keys — distribution badly skewed", n, counts[n], keys)
		}
	}

	// Drop n2: every key n2 did not own must keep its owner.
	survivors := []string{nodes[0], nodes[2]}
	for k, o := range owners {
		no := lab.RendezvousOwner(survivors, k)
		if o != nodes[1] && no != o {
			t.Fatalf("removing %s moved key owned by %s to %s", nodes[1], o, no)
		}
		if o == nodes[1] && no == nodes[1] {
			t.Fatal("removed node still owns a key")
		}
	}
}

// TestFleetExactlyOnce: the same spec submitted to every node of a fleet
// executes exactly once, on its rendezvous owner; the other nodes proxy
// and pull the artifact over the peer tier.
func TestFleetExactlyOnce(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()
	owner := urls[1]
	body, key := specOwnedBy(t, urls, owner, "exactly-once")

	// Non-owners first: both must route to the owner, not execute.
	for _, u := range []string{urls[0], urls[2], urls[1]} {
		st := postSpecURL(t, u, body)
		if st.Key != key {
			t.Fatalf("ledger key %s, want %s", st.Key, key)
		}
		waitDoneURL(t, u, key)
	}

	if got := fl.Executions(); got != 1 {
		t.Fatalf("fleet executed the spec %d times, want exactly 1", got)
	}
	for i, n := range fl.Nodes {
		want := uint64(0)
		if urls[i] == owner {
			want = 1
		}
		if got := n.Engine.Executions(); got != want {
			t.Errorf("node %d (%s): %d executions, want %d", i, urls[i], got, want)
		}
	}

	// The artifact reached the non-owners through the peer fetch tier and
	// is now pinned in their local stores.
	var peerHits uint64
	for i, n := range fl.Nodes {
		if urls[i] == owner {
			continue
		}
		if !n.Store.Has(key) {
			t.Errorf("node %d missing the artifact locally after proxying", i)
		}
		peerHits += n.Store.Peers().Stats().Hits
	}
	if peerHits == 0 {
		t.Error("no peer fetch hits — artifact did not travel the peer tier")
	}
	_, stats := fleetStatus(t, urls[0])
	if stats.Proxied == 0 {
		t.Errorf("node 0 fleet stats show no proxied jobs: %+v", stats)
	}
}

// TestFleetStealsWhenOwnerBusy: once the owner's queue is deeper than
// StealDepth, a non-owner stops proxying and executes locally — latency
// over strict single-flight.
func TestFleetStealsWhenOwnerBusy(t *testing.T) {
	fl := startFleet(t, 2, lab.LocalFleetOptions{
		Workers: 1,
		Opts:    lab.Options{Fleet: lab.FleetConfig{StealDepth: 1}},
	})
	urls := fl.URLs()
	owner, other := urls[0], urls[1]

	// Saturate the owner: one running blocker plus two queued ones, all
	// rendezvous-owned by it so they execute where submitted.
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var blockKeys []string
	for i := 0; i < 3; i++ {
		body, bkey := specOwnedBy(t, urls, owner, fmt.Sprintf("steal-block-%d", i))
		blockKeys = append(blockKeys, bkey)
		var wire struct {
			Params testParams `json:"params"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		testBehaviors.Store(wire.Params.ID, func(sub runner.Sub) (any, error) {
			select {
			case <-release:
				return "ok", nil
			case <-sub.Context().Done():
				return nil, sub.Context().Err()
			}
		})
		postSpecURL(t, owner, body)
	}

	// Owner queue depth is now 2 (> StealDepth 1): a non-owned submission
	// to the other node must be stolen, not proxied.
	body, key := specOwnedBy(t, urls, owner, "steal-victim")
	st := postSpecURL(t, other, body)
	waitDoneURL(t, other, st.Key)
	if st.Key != key {
		t.Fatalf("ledger key %s, want %s", st.Key, key)
	}

	if got := fl.Nodes[1].Engine.Executions(); got != 1 {
		t.Errorf("stealing node executed %d jobs, want 1", got)
	}
	_, stats := fleetStatus(t, other)
	if stats.Steals == 0 {
		t.Errorf("no steal recorded: %+v", stats)
	}

	// Drain the blockers so their artifact writes finish before TempDir
	// cleanup tears the stores down.
	releaseOnce()
	for _, k := range blockKeys {
		waitDoneURL(t, owner, k)
	}
}

// TestFleetDeadPeerFailover: killing a node mid-matrix must degrade to
// local recomputation on the survivors — never to a failed job — even for
// work the dead node owned and had already computed.
func TestFleetDeadPeerFailover(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{
		Workers:      1,
		FetchTimeout: 100 * time.Millisecond,
	})
	urls := fl.URLs()

	// Warm a job on node 2 (its owner), then kill node 2.
	warmBody, warmKey := specOwnedBy(t, urls, urls[2], "dead-warm")
	st := postSpecURL(t, urls[2], warmBody)
	waitDoneURL(t, urls[2], st.Key)
	fl.Kill(2)

	// The survivors can neither proxy to the dead owner nor fetch its
	// artifact: the job must re-execute locally and still succeed.
	st = postSpecURL(t, urls[0], warmBody)
	waitDoneURL(t, urls[0], st.Key)
	if st.Key != warmKey {
		t.Fatalf("ledger key %s, want %s", st.Key, warmKey)
	}
	if got := fl.Nodes[0].Engine.Executions(); got != 1 {
		t.Errorf("survivor executed %d jobs, want 1 (local recompute)", got)
	}
	_, stats := fleetStatus(t, urls[0])
	if stats.Steals == 0 {
		t.Errorf("dead-owner fallback not recorded as a steal: %+v", stats)
	}
	if stats.PeerFetch.Errors == 0 && stats.PeerFetch.Misses == 0 {
		t.Errorf("peer tier recorded no failed fetch against the dead node: %+v", stats.PeerFetch)
	}

	// Fresh work owned by the dead node also lands on a survivor.
	coldBody, coldKey := specOwnedBy(t, urls, urls[2], "dead-cold")
	st = postSpecURL(t, urls[1], coldBody)
	waitDoneURL(t, urls[1], st.Key)
	if st.Key != coldKey {
		t.Fatalf("ledger key %s, want %s", st.Key, coldKey)
	}
}

// TestFleetZeroDuplicates: a batch of distinct specs scattered round-robin
// and then resubmitted everywhere executes each key exactly once
// fleet-wide — the invariant the fleet perf scenario and CI's fleet-smoke
// job gate on.
func TestFleetZeroDuplicates(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()

	const jobs = 9
	bodies := make([][]byte, jobs)
	keys := make([]string, jobs)
	for i := range bodies {
		sp := spec.MustNew(testParams{ID: fmt.Sprintf("zero-dup-%d", i)})
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], keys[i] = b, sp.Key()
	}

	for i, b := range bodies {
		st := postSpecURL(t, urls[i%len(urls)], b)
		waitDoneURL(t, urls[i%len(urls)], st.Key)
	}
	if got := fl.Executions(); got != jobs {
		t.Fatalf("warm pass: %d executions for %d unique specs", got, jobs)
	}

	for _, b := range bodies {
		for _, u := range urls {
			st := postSpecURL(t, u, b)
			waitDoneURL(t, u, st.Key)
		}
	}
	if got := fl.Executions(); got != jobs {
		t.Fatalf("resubmit pass re-executed work: %d executions for %d unique specs", got, jobs)
	}
}

// TestFleetMetrics: a fleet node serves the fleet metric families and the
// status fleet block; the shared inventory lists stay the CI contract.
func TestFleetMetrics(t *testing.T) {
	fl := startFleet(t, 2, lab.LocalFleetOptions{Workers: 1})
	urls := fl.URLs()

	body, _ := specOwnedBy(t, urls, urls[1], "fleet-metrics")
	st := postSpecURL(t, urls[0], body)
	waitDoneURL(t, urls[0], st.Key)

	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page bytes.Buffer
	if _, err := page.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range fleetMetricsInventory {
		if !bytes.Contains(page.Bytes(), []byte(name)) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !bytes.Contains(page.Bytes(), []byte("labd_fleet_proxied_total 1")) {
		t.Errorf("/metrics did not record the proxied job:\n%s", page.String())
	}

	execs, stats := fleetStatus(t, urls[0])
	if stats.Self != urls[0] || len(stats.Peers) != 1 || stats.Peers[0] != urls[1] {
		t.Errorf("fleet status peers wrong: %+v", stats)
	}
	if execs != 0 {
		t.Errorf("proxying node reports %d executions, want 0", execs)
	}
}

// TestRunLoadFleet: the load generator drives a multi-node fleet,
// reporting aggregate throughput and the fleet-wide counter movement.
func TestRunLoadFleet(t *testing.T) {
	fl := startFleet(t, 3, lab.LocalFleetOptions{Workers: 1})

	const unique = 4
	bodies := make([][]byte, unique)
	for i := range bodies {
		sp := spec.MustNew(testParams{ID: fmt.Sprintf("load-fleet-%d", i)})
		b, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	rep, err := lab.RunLoad(lab.LoadConfig{
		BaseURLs: fl.URLs(), Bodies: bodies, Requests: 24, Clients: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures > 0 {
		t.Fatalf("%d failed requests: %+v", rep.Failures, rep)
	}
	if rep.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", rep.Nodes)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("ThroughputRPS = %v, want > 0", rep.ThroughputRPS)
	}
	if rep.Fleet == nil {
		t.Fatal("fleet totals missing from a fleet load report")
	}
	if rep.Fleet.Executions != unique {
		t.Errorf("fleet executed %d specs for %d unique bodies", rep.Fleet.Executions, unique)
	}
	if got := fl.Executions(); got != unique {
		t.Errorf("engines report %d executions, want %d", got, unique)
	}
}
