package artifact_test

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/runner"
)

// envelopeServer serves a fixed envelope body for every /v1/artifacts GET
// — the minimal fake peer for integrity and failure-policy tests.
func envelopeServer(t *testing.T, body []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/artifacts/") {
			http.NotFound(w, r)
			return
		}
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPeerFetchRejectsTamperedEnvelope: a peer serving bytes that fail the
// integrity gate (valid JSON, wrong payload hash) reads as an error and a
// miss — never as data.
func TestPeerFetchRejectsTamperedEnvelope(t *testing.T) {
	k := key("1a")
	env := makeEnvelope(t, k, "honest")
	tampered := bytes.Replace(env, []byte("honest"), []byte("forged"), 1)
	if bytes.Equal(tampered, env) {
		t.Fatal("tamper marker not found")
	}
	ts := envelopeServer(t, tampered)

	p := artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond})
	if _, ok := p.Get(k); ok {
		t.Fatal("tampered envelope accepted")
	}
	if s := p.Stats(); s.Errors != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats after tampered fetch = %+v, want 1 error, 1 miss", s)
	}

	// The honest bytes from the same wire path are accepted.
	honest := envelopeServer(t, env)
	p2 := artifact.NewPeerBlob([]string{honest.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond})
	got, ok := p2.Get(k)
	if !ok || !bytes.Equal(got, env) {
		t.Fatal("intact envelope rejected")
	}
}

// TestPeerFetchRetriesTransportError: a transport-level failure (the peer
// drops the connection mid-request — a node mid-restart) earns exactly one
// retry; the retry succeeding means the fetch is a hit, not an error.
func TestPeerFetchRetriesTransportError(t *testing.T) {
	k := key("2e")
	env := makeEnvelope(t, k, "retry")
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // abort mid-request: transport error at the client
			}
			return
		}
		w.Write(env)
	}))
	defer ts.Close()

	p := artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond})
	got, ok := p.Get(k)
	if !ok || !bytes.Equal(got, env) {
		t.Fatalf("fetch did not recover via retry (ok=%v, %d calls)", ok, calls.Load())
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d calls, want 2 (original + one retry)", calls.Load())
	}
	if s := p.Stats(); s.Hits != 1 || s.Errors != 0 {
		t.Errorf("stats = %+v, want a clean hit after retry", s)
	}
}

// TestPeerFetchTimeout: a hung peer is bounded by the per-attempt timeout
// — the caller gets a miss in bounded time, not a stuck job.
func TestPeerFetchTimeout(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block) // LIFO: unblock the handler before ts.Close waits on it

	p := artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{
		Timeout: 50 * time.Millisecond, RetryBackoff: time.Millisecond,
	})
	t0 := time.Now()
	if _, ok := p.Get(key("3b")); ok {
		t.Fatal("fetch from a hung peer reported a hit")
	}
	// Two attempts (original + retry) of 50ms each, plus jittered backoff.
	if d := time.Since(t0); d > 2*time.Second {
		t.Errorf("timed-out fetch took %v, want bounded by ~2×timeout", d)
	}
	if s := p.Stats(); s.Errors != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 error + 1 miss", s)
	}
}

// TestPeerFetchFailsOverDeadPeer: a dead first peer (connection refused)
// must not hide the second peer that has the artifact.
func TestPeerFetchFailsOverDeadPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	k := key("4f")
	env := makeEnvelope(t, k, "failover")
	live := envelopeServer(t, env)

	p := artifact.NewPeerBlob([]string{dead, live.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond})
	got, ok := p.Get(k)
	if !ok || !bytes.Equal(got, env) {
		t.Fatal("fetch did not fail over past the dead peer")
	}
	if s := p.Stats(); s.Hits != 1 || s.Errors != 1 {
		t.Errorf("stats = %+v, want 1 hit + 1 error (the dead peer)", s)
	}
}

// TestPeerReadThroughPersists: a Store with an attached peer tier serves a
// key it has never computed — fetched from the peer, integrity-verified,
// and persisted locally so the next load (and the next process) is local.
func TestPeerReadThroughPersists(t *testing.T) {
	// Node A: has the artifact, serves it through a real lab handler.
	aStore, err := artifact.Open(t.TempDir(), 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	k := key("5c")
	aStore.Save("test", k, payload{Name: "from-a", Vals: []int64{7}})
	eng, _, err := lab.NewEngine(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, aStore, lab.Options{}).Handler())

	// Node B: empty local store, peer tier pointing at A.
	bDir := t.TempDir()
	bStore, err := artifact.Open(bDir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	bStore.AttachPeers(artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond}))

	got, ok := bStore.Load("test", k)
	if !ok || got.(payload).Name != "from-a" {
		t.Fatalf("peer read-through failed: %v %v", got, ok)
	}
	if s := bStore.Stats(); s.PeerHits != 1 {
		t.Errorf("PeerHits = %d, want 1", s.PeerHits)
	}
	if !bStore.Has(k) {
		t.Error("fetched artifact not persisted to the local tier")
	}

	// A dies; B still serves the key — locally, and across a re-open.
	ts.Close()
	if _, ok := bStore.Load("test", k); !ok {
		t.Error("artifact lost after the source peer died")
	}
	bStore2, err := artifact.Open(bDir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := bStore2.Load("test", k); !ok || got.(payload).Name != "from-a" {
		t.Error("read-through artifact did not survive a re-open")
	}
}

// TestPeerServingCorruptionRecomputes: when a serving node's envelope is
// corrupted on disk, its own integrity gate refuses to serve it. The
// server counts one corrupt artifact and drops the file, the fetching
// node sees a plain miss (a 404, not a peer error) and executes the spec
// itself.
func TestPeerServingCorruptionRecomputes(t *testing.T) {
	aDir := t.TempDir()
	aStore, err := artifact.Open(aDir, 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	k := key("6d")
	aStore.Save("test", k, payload{Name: "from-a", Pad: strings.Repeat("p", 256)})
	eng, _, err := lab.NewEngine(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, aStore, lab.Options{}).Handler())
	defer ts.Close()
	corruptOnDisk(t, aDir, k)

	bStore, err := artifact.Open(t.TempDir(), 0, codecs())
	if err != nil {
		t.Fatal(err)
	}
	bStore.AttachPeers(artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{RetryBackoff: time.Millisecond}))
	bEng := runner.New(1)
	bEng.Store = bStore
	got, err := bEng.RunSpec(recomputeSpec{key: k})
	if err != nil || got.(payload).Name != "recomputed" || bEng.Executions() != 1 {
		t.Fatalf("fetching node did not recompute: %v %v, %d executions", got, err, bEng.Executions())
	}
	if s := bStore.Peers().Stats(); s.Misses != 1 || s.Hits != 0 || s.Errors != 0 {
		t.Errorf("peer stats = %+v, want one clean miss", s)
	}
	if s := bStore.Stats(); s.PeerHits != 0 || s.LoadMisses != 1 || s.Saves != 1 {
		t.Errorf("fetching store stats = %+v, want 1 miss, 1 save, no peer hit", s)
	}
	if s := aStore.Stats(); s.Corrupt != 1 {
		t.Errorf("serving store corrupt = %d, want 1", s.Corrupt)
	}
	if aStore.Has(k) {
		t.Error("serving store still indexes the corrupt artifact")
	}
	filepath.Walk(aDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(p, k) {
			t.Errorf("corrupt artifact file %s not dropped", p)
		}
		return nil
	})
}

// recomputeSpec is a "test"-kind spec whose execution yields a fixed
// payload.
type recomputeSpec struct{ key string }

func (recomputeSpec) Kind() string                       { return "test" }
func (s recomputeSpec) Key() string                      { return s.key }
func (recomputeSpec) Identity() (string, string, string) { return "test", "recompute", "" }
func (recomputeSpec) Run(runner.Sub) (any, error)        { return payload{Name: "recomputed"}, nil }
