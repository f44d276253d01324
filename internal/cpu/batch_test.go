package cpu

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// clearScratch zeroes the core's access-record scratch before a state
// comparison: it is plumbing, not model state — the batched engine only
// materializes records the miss tail consumes, so after an L1-hit it
// legitimately holds an older record than the oracle's.
func clearScratch(c *Core) { c.acc = mem.Access{} }

// idxOracle overrides misses as a pure function of the access's stream
// position and level, so any difference in the MemIdx/InstrIdx the two
// engines hand the hierarchy's miss tail moves the timing; calls counts
// the consultations, which the final deep-equal compares too.
type idxOracle struct{ calls uint64 }

func (o *idxOracle) OverrideMiss(a *mem.Access, lv cache.Level) bool {
	o.calls++
	return (a.MemIdx*31+a.InstrIdx*7+uint64(lv))%3 == 0
}

// TestRunBatchMatchesRun is the batched timing core's oracle gate: for
// every workload profile in the suite, a core driven by RunBatch must
// produce bit-identical per-quantum Stats AND bit-identical final state —
// the whole Core (dispatch clock, ROB ring, MSHR ring, in-flight table,
// scratch), the whole hierarchy (tags, ages, tick counters, statistics,
// the armed oracle) and the branch predictor — compared to a twin core
// driven by the per-instruction Run oracle. Quanta of varying sizes land
// the chunk and call boundaries mid-burst, mid-miss and across phase
// edges; the 30 000-instruction quantum spans many chunks inside one
// interval. Odd quanta run with a miss-overriding oracle armed at both
// levels, as EvalRegion's measured region does.
func TestRunBatchMatchesRun(t *testing.T) {
	quanta := []uint64{200, 1, 7, 200, 3000, 64, 513, 200, 30_000, 0, 1023}
	for _, prof := range workload.Benchmarks() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			const scale = 256
			mk := func() (*Core, *workload.Program, *idxOracle) {
				hier := cache.NewHierarchy(cache.DefaultHierarchy(4<<20, scale), nil)
				return NewCore(DefaultConfig(), hier, nil), prof.NewProgram(scale), &idxOracle{}
			}
			refCore, refProg, refOracle := mk()
			batCore, batProg, batOracle := mk()
			var batch workload.InstrBatch
			for qi, q := range quanta {
				refCore.Hier.Oracle, batCore.Hier.Oracle = nil, nil
				if qi%2 == 1 {
					refCore.Hier.Oracle, batCore.Hier.Oracle = refOracle, batOracle
				}
				want := refCore.Run(refProg, q)
				got := batCore.RunBatch(batProg, q, &batch)
				if got != want {
					t.Fatalf("quantum %d (n=%d): stats diverge:\nbatched %+v\noracle  %+v", qi, q, got, want)
				}
			}
			if refOracle.calls == 0 {
				t.Fatal("the armed oracle was never consulted")
			}
			clearScratch(refCore)
			clearScratch(batCore)
			if !reflect.DeepEqual(batCore, refCore) {
				t.Errorf("final core state diverges (including hierarchy and predictor):\nbatched %+v\noracle  %+v", batCore, refCore)
			}
			// Decode scratch is not program state either.
			refProg.ClearScratch()
			batProg.ClearScratch()
			if !reflect.DeepEqual(batProg, refProg) {
				t.Errorf("final program state diverges")
			}
		})
	}

	// Two cores over one shared LLC, alternating quanta: the per-core
	// half of the co-run engine, whose scheduler multiprog pins separately.
	t.Run("shared-llc", func(t *testing.T) {
		const scale = 64
		profs := []*workload.Profile{workload.Mcf(), workload.Lbm()}
		mk := func() ([]*Core, []*workload.Program) {
			hiers := cache.NewSharedHierarchy(cache.DefaultHierarchy(1<<20, scale), len(profs))
			cores := make([]*Core, len(profs))
			progs := make([]*workload.Program, len(profs))
			for i, p := range profs {
				cores[i] = NewCore(DefaultConfig(), hiers[i], nil)
				progs[i] = p.NewProgram(scale)
			}
			return cores, progs
		}
		refCores, refProgs := mk()
		batCores, batProgs := mk()
		var batch workload.InstrBatch
		for qi, q := range []uint64{200, 700, 1, 5000, 513, 200, 3, 2048} {
			i := qi % 2
			want := refCores[i].Run(refProgs[i], q)
			got := batCores[i].RunBatch(batProgs[i], q, &batch)
			if got != want {
				t.Fatalf("quantum %d (core %d, n=%d): stats diverge:\nbatched %+v\noracle  %+v", qi, i, q, got, want)
			}
		}
		for i := range batCores {
			clearScratch(refCores[i])
			clearScratch(batCores[i])
		}
		if !reflect.DeepEqual(batCores, refCores) {
			t.Errorf("final state of the shared-LLC cores diverges")
		}
	})

	// The scratch holds one chunk, whatever the interval length.
	t.Run("bounded-scratch", func(t *testing.T) {
		hier := cache.NewHierarchy(cache.DefaultHierarchy(4<<20, 256), nil)
		var b workload.InstrBatch
		NewCore(DefaultConfig(), hier, nil).RunBatch(workload.Mcf().NewProgram(256), 1<<20, &b)
		if cap(b) > workload.ChunkLen {
			t.Errorf("scratch capacity %d after a 1<<20-instruction interval, want <= %d", cap(b), workload.ChunkLen)
		}
	})
}

// TestRunBatchMatchesRunInterleaved: mixing the two engines on ONE core
// mid-stream must also be exact — the memo is per call, so nothing about
// a preceding Run (or functional warming) can poison a following RunBatch.
func TestRunBatchMatchesRunInterleaved(t *testing.T) {
	prof := workload.Mcf()
	const scale = 256
	mk := func() (*Core, *workload.Program) {
		hier := cache.NewHierarchy(cache.DefaultHierarchy(4<<20, scale), nil)
		return NewCore(DefaultConfig(), hier, nil), prof.NewProgram(scale)
	}
	refCore, refProg := mk()
	mixCore, mixProg := mk()
	var batch workload.InstrBatch
	for i := 0; i < 40; i++ {
		want := refCore.Run(refProg, 200)
		var got Stats
		if i%2 == 0 {
			got = mixCore.RunBatch(mixProg, 200, &batch)
		} else {
			got = mixCore.Run(mixProg, 200)
		}
		if got != want {
			t.Fatalf("quantum %d: stats diverge:\nmixed  %+v\noracle %+v", i, got, want)
		}
	}
	clearScratch(refCore)
	clearScratch(mixCore)
	if !reflect.DeepEqual(mixCore, refCore) {
		t.Errorf("final core state diverges after interleaving Run and RunBatch")
	}
}

// TestCoreUsesConfiguredMSHRs: the MSHR table (ring capacity, occupancy
// bound, in-flight sizing) must come from the hierarchy configuration, not
// a hardcoded 8 — the regression this pins was Config.L1DMSHRs() ignoring
// the config entirely.
func TestCoreUsesConfiguredMSHRs(t *testing.T) {
	cfg := cache.DefaultHierarchy(1<<20, 64)
	cfg.L1D.MSHRs = 3
	core := NewCore(DefaultConfig(), cache.NewHierarchy(cfg, nil), nil)
	if core.mshrs != 3 || len(core.mshrFree.buf) != 3 {
		t.Errorf("mshrs = %d, ring capacity = %d, want 3 from hierarchy config", core.mshrs, len(core.mshrFree.buf))
	}
	core = NewCore(DefaultConfig(), nil, nil)
	if core.mshrs != 8 {
		t.Errorf("nil-hierarchy fallback mshrs = %d, want 8", core.mshrs)
	}
}

// TestMSHRRingOrdering pins the sorted ring against a reference multiset
// under a randomized push/pop/drain workload shaped like the core's
// (near-ascending completion times, occasional popMin bursts).
func TestMSHRRingOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, capacity := range []int{1, 2, 8, 20} {
		var r mshrRing
		r.init(capacity)
		var ref []uint64
		base := uint64(100)
		for step := 0; step < 20_000; step++ {
			if r.n < capacity && (r.n == 0 || rng.Intn(3) > 0) {
				x := base + uint64(rng.Intn(300))
				base += uint64(rng.Intn(5))
				r.push(x)
				ref = append(ref, x)
				sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			} else {
				if got, want := r.min(), ref[0]; got != want {
					t.Fatalf("cap %d step %d: min = %d, want %d", capacity, step, got, want)
				}
				r.popMin()
				ref = ref[1:]
			}
			if r.n != len(ref) {
				t.Fatalf("cap %d step %d: len = %d, want %d", capacity, step, r.n, len(ref))
			}
		}
	}
}
