package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
	} {
		v, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", 100*c.q, c.n, err, c.ok)
			continue
		}
		if c.ok && v != c.want {
			t.Errorf("p%g of %d samples = %v, want %v", 100*c.q, c.n, v, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // outlives the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(append(spans, Span{ID: 6, Name: "a", Tier: "memory", Start: 0, End: 5}))
	if byName["a"] != 20 {
		t.Errorf("self time of executed a = %v, want 20 (cache waits excluded)", byName["a"])
	}
}

func TestLinkNested(t *testing.T) {
	ms := int64(time.Millisecond)
	ev := []Span{
		{Kind: "corun-calibrate", Bench: "mcf", Extra: "8388608", Start: 0, End: 100 * ms},
		{Kind: "corun-profile", Bench: "mcf", Tier: "memory", Start: 1 * ms, End: 60 * ms},
		{Kind: "corun-profile", Bench: "hmmer", Start: 5 * ms, End: 50 * ms},
		{Kind: "corun-sim", Bench: "a+b", Extra: "8388608", Start: 0, End: 80 * ms},
		{Kind: "corun-warm", Bench: "a+b", Extra: "16777216", Start: 10 * ms, End: 20 * ms},
		{Kind: "corun-warm", Bench: "a+b", Extra: "8388608", Start: 10 * ms, End: 20 * ms},
		{Kind: "corun-profile", Bench: "mcf", Start: -50 * ms, End: 40 * ms}, // began long before
	}
	got := linkNested(ev)
	want := []int{-1, 0, -1, -1, -1, 3, -1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parents = %v, want %v", got, want)
	}
}

func TestDigest(t *testing.T) {
	a := digest([][]byte{[]byte("ab"), []byte("c")})
	if a != digest([][]byte{[]byte("ab"), []byte("c")}) {
		t.Fatal("digest is not deterministic")
	}
	if a == digest([][]byte{[]byte("a"), []byte("bc")}) {
		t.Error("moving a byte between parts kept the digest")
	}
	if i, ok := sameDigest([]string{"x", "x", "y"}); ok || i != 2 {
		t.Errorf("sameDigest = %d, %v; want 2, false", i, ok)
	}
	if _, ok := sameDigest([]string{"x", "x"}); !ok {
		t.Error("sameDigest rejected equal digests")
	}
}

func TestLabdPlanMix(t *testing.T) {
	p, err := newLabdPlan(7, labdRequests)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.order) != labdRequests {
		t.Fatalf("%d requests planned, want %d", len(p.order), labdRequests)
	}
	block := 0
	for _, r := range labdRatio {
		block += r
	}
	used := map[string]map[int]int{}
	for b := 0; b < len(p.order); b += block {
		count := map[string]int{}
		for _, r := range p.order[b : b+block] {
			count[r.class]++
			if used[r.class] == nil {
				used[r.class] = map[int]int{}
			}
			used[r.class][r.spec]++
		}
		for i, c := range labdClasses {
			if count[c] != labdRatio[i] {
				t.Fatalf("block at %d holds %d %s requests, want %d", b, count[c], c, labdRatio[i])
			}
		}
	}
	for _, c := range []string{classCold, classDisk} {
		if len(used[c]) != len(p.bodies[c]) {
			t.Errorf("%d of %d %s specs requested", len(used[c]), len(p.bodies[c]), c)
		}
		for i, n := range used[c] {
			if n != 1 {
				t.Errorf("%s spec %d requested %d times, want once", c, i, n)
			}
		}
	}
	if len(p.bodies[classMem]) != labdMemSpecs || len(used[classMem]) != labdMemSpecs {
		t.Errorf("mem class uses %d of %d specs, want all %d", len(used[classMem]), len(p.bodies[classMem]), labdMemSpecs)
	}
	seen := map[string]bool{}
	for _, c := range labdClasses {
		for _, k := range p.keys[c] {
			if seen[k] {
				t.Errorf("spec key %s appears twice", k)
			}
			seen[k] = true
		}
	}

	again, err := newLabdPlan(7, labdRequests)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, again) {
		t.Error("the same seed planned different requests")
	}
	other, err := newLabdPlan(8, labdRequests)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p.order, other.order) || p.keys[classCold][0] == other.keys[classCold][0] {
		t.Error("another seed planned the same order or specs")
	}
}

// TestWorkloadsSmoke runs every workload at its tiny size, traced and
// untraced: the output checks must pass, the digests must agree, and the
// traced run must measure the workload's layers.
func TestWorkloadsSmoke(t *testing.T) {
	layers := map[string][]string{
		"paper-sampling": {"core.scout_s", "core.analyst_ns_per_instr", "vm.instr_vff", "runner.job_s.sampling.delorean",
			"workload.skip_ns_per_instr", "sampling.modeled_speedup", "go.alloc_mb"},
		"corun-matrix": {"runner.job_s.corun-profile", "runner.job_s.corun-sim", "cpu.instructions",
			"cache.l1d_hit_rate", "multiprog.sim_ns_per_access", "multiprog.corun_cpi_err"},
		"labd-mixed": {"lab.submit_ms.cold", "lab.wait_ms.mem", "journal.syncs", "artifact.saves",
			"runner.job_s.labd.cold", "runner.store_hits", "lab.req_per_s"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(traced bool) *repReport {
				rep, err := w.run(runConfig{seed: 3, traced: traced, tiny: true, t0: time.Now(), dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Errors) > 0 {
					t.Fatalf("checks failed: %v", rep.Errors)
				}
				if rep.Ops < 1 || rep.Failed != 0 || rep.WallS <= 0 || rep.Instr <= 0 || rep.Digest == "" {
					t.Fatalf("implausible report: %+v", rep)
				}
				return rep
			}
			plain, traced := run(false), run(true)
			if plain.Digest != traced.Digest {
				t.Errorf("untraced digest %s, traced %s", plain.Digest, traced.Digest)
			}
			for _, name := range layers[w.name] {
				if traced.Layer[name] <= 0 {
					t.Errorf("layer metric %s = %v, want > 0", name, traced.Layer[name])
				}
			}
			if len(traced.Spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's %d metrics", len(perLayer))
	}
}
