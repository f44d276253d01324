package spec_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/warm"
)

// cancelAfterPuts mirrors the in-package cancelOnPut helper for the fleet
// test: cancel a context after the Nth Put of one key, so "the owner died
// mid-measured-window" happens at a deterministic checkpoint count.
type cancelAfterPuts struct {
	artifact.Blob
	key    string
	after  int
	cancel context.CancelFunc
	n      int
}

func (c *cancelAfterPuts) Put(key string, data []byte) bool {
	ok := c.Blob.Put(key, data)
	if key == c.key {
		if c.n++; c.n == c.after {
			c.cancel()
		}
	}
	return ok
}

// TestStolenCellResumesFromPeerProgress is the fleet steal-mid-run case:
// node A dies partway through a cell's measured window, leaving a
// progress checkpoint in its store; node B — which never ran the mix —
// picks the job up and must resume through the peer read-through tier
// from A's checkpoint, landing on the bit-identical result without
// re-warming or re-running the paid-for prefix.
func TestStolenCellResumesFromPeerProgress(t *testing.T) {
	defer func(v uint64) { spec.ProgressEveryQuanta = v }(spec.ProgressEveryQuanta)
	spec.ProgressEveryQuanta = 256

	cfg := warm.DefaultConfig()
	apps := []spec.BenchRef{{Name: "mcf"}, {Name: "omnetpp"}}
	cell := spec.CoRunSimParams{Mix: "mcf-omnetpp", Apps: apps, Cfg: cfg}
	cellKey := spec.MustNew(cell).Key()
	warmKey := spec.MustNew(spec.CoRunWarmParams{Mix: cell.Mix, Apps: apps, Cfg: cfg}).Key()
	pkey := spec.ProgressKey(cellKey)

	// Control answer, store-less.
	want, err := runner.New(1).RunSpec(spec.MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}

	// Node A runs the cell and "dies" right after its 2nd checkpoint.
	dirA := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	innerA, err := artifact.NewDiskBlob(dirA)
	if err != nil {
		t.Fatal(err)
	}
	stA, err := artifact.OpenBlob(&cancelAfterPuts{Blob: innerA, key: pkey, after: 2, cancel: cancel}, 0, spec.Codecs())
	if err != nil {
		t.Fatal(err)
	}
	engA := runner.New(1)
	engA.Store = stA
	if _, err := engA.RunSpecCtx(ctx, spec.MustNew(cell)); !errors.Is(err, context.Canceled) {
		t.Fatalf("owner run returned %v, want context.Canceled", err)
	}

	// A's store (reopened clean, as a restarted or surviving node would
	// serve it) goes behind a lab server for peer fetches.
	srvEng, srvStore, err := lab.NewEngine(1, dirA, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(srvEng, srvStore, lab.Options{}).Handler())
	defer ts.Close()

	// Node B: empty local store, A as its peer tier.
	stB, err := spec.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pb := artifact.NewPeerBlob([]string{ts.URL}, artifact.PeerOptions{Timeout: 5 * time.Second})
	stB.AttachPeers(pb)
	engB := runner.New(1)
	engB.Store = stB

	got, err := engB.RunSpec(spec.MustNew(cell))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stolen run diverged from straight run:\n got  %+v\n want %+v", got, want)
	}
	if stB.Stats().PeerHits == 0 {
		t.Error("no peer fetch happened: the run did not resume from A's checkpoint")
	}
	// Resuming from the peer checkpoint means B never needed the warm-up;
	// had it recomputed (or peer-fetched) the warm state, the read-through
	// tier would have cached it locally.
	if stB.Has(warmKey) {
		t.Error("B acquired the warm checkpoint: it recomputed instead of resuming")
	}
	if !stB.Has(cellKey) {
		t.Error("B did not persist the finished cell result")
	}
	if stB.Has(pkey) {
		t.Error("B kept the progress trail after finishing the cell")
	}
}
