package lab_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/lab"
)

// TestRunLoad drives the load generator end to end against an in-process
// service: every request must succeed, duplicates must ride the
// cache/dedup path, and the percentile report must be populated.
func TestRunLoad(t *testing.T) {
	eng, store, err := lab.NewEngine(0, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(lab.NewServerOpts(eng, store, lab.Options{}).Handler())
	defer ts.Close()

	rep, err := lab.RunLoad(lab.LoadConfig{
		BaseURL: ts.URL, Requests: 12, Clients: 3, Unique: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failed requests: %+v", rep.Failures, rep)
	}
	if rep.Accepted+rep.CacheHits != rep.Requests {
		t.Errorf("accepted %d + cache hits %d != %d requests", rep.Accepted, rep.CacheHits, rep.Requests)
	}
	if rep.Accepted < 3 {
		t.Errorf("accepted %d < 3 unique specs", rep.Accepted)
	}
	if rep.CacheHits == 0 {
		t.Error("no request rode the cache/dedup path")
	}
	if rep.SubmitP99Ms <= 0 || rep.WaitP99Ms <= 0 || rep.SubmitP99Ms < rep.SubmitP50Ms {
		t.Errorf("implausible percentiles: %+v", rep)
	}
	if _, misses := eng.CacheStats(); misses != 3 {
		t.Errorf("engine executed %d specs, want 3 unique", misses)
	}
}

// TestRunLoadBackpressure: the generator retries 429s per the Retry-After
// hint instead of failing, and reports the rejections it absorbed.
func TestRunLoadBackpressure(t *testing.T) {
	eng, _, err := lab.NewEngine(1, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A queue of 1 on a 1-worker service guarantees rejections under
	// 3 concurrent clients.
	ts := httptest.NewServer(lab.NewServerOpts(eng, nil, lab.Options{MaxQueue: 1}).Handler())
	defer ts.Close()

	rep, err := lab.RunLoad(lab.LoadConfig{
		BaseURL: ts.URL, Requests: 9, Clients: 3, Unique: 9, Seed: 99, MaxRetries: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failed requests despite retries: %+v", rep.Failures, rep)
	}
	if rep.Accepted != 9 {
		t.Errorf("accepted %d, want all 9 unique specs", rep.Accepted)
	}
}
