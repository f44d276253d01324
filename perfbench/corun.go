package main

import (
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/figures"
	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/warm"
)

// corunScale is the scale of the corun-matrix scenario of cmd/bench.
const corunScale = 256

// corunUnique counts the distinct specs figures.CoRunMatrix executes: one
// profile per app, and per (mix, LLC size) one warm checkpoint and one
// simulated cell, plus one calibration per (app, LLC size).
func corunUnique(mixes []figures.CoRunScenario, sizes []uint64) int {
	apps := map[string]bool{}
	for _, m := range mixes {
		for _, a := range m.Apps {
			apps[a.Name] = true
		}
	}
	return len(apps) + len(sizes)*(len(apps)+2*len(mixes))
}

// runCorun runs figures.CoRunMatrix once over the short mixes and sizes on
// a fresh engine with no store.
func runCorun(rc runConfig) (*repReport, error) {
	mixes := figures.CoRunMixes(true)
	sizes := figures.CoRunSizes(true)
	cfg := warm.DefaultConfig()
	cfg.Scale = corunScale
	if rc.tiny {
		cfg.Scale = 4096
		mixes = mixes[:1]
	}
	cfg.Seed = rc.seed
	rep := &repReport{SetupS: rc.setupDone(), Ops: 1}
	if rc.setupOnly {
		return rep, nil
	}

	eng := runner.New(0)
	var tr *Tracer
	var rec *jobRecorder
	var before runtime.MemStats
	if rc.traced {
		tr = newTracer("corun-matrix")
		rec = &jobRecorder{tr: tr}
		eng.OnProgress = rec.onProgress
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	cells := figures.CoRunMatrix(eng, mixes, sizes, cfg)
	wall := time.Since(start)
	rep.WallS = wall.Seconds()
	rep.OpMs = []float64{float64(wall.Nanoseconds()) / 1e6}

	if n, want := eng.Executions(), corunUnique(mixes, sizes); n != uint64(want) {
		rep.errorf("corun-matrix: %d executions for %d unique jobs", n, want)
	}
	var layer map[string]float64
	if rc.traced {
		layer = map[string]float64{}
		goStats(layer, &before)
		runnerStats(layer, eng)
		eng.OnProgress = nil
	}

	// The simulated cells are in the engine's cache; looking them up again
	// costs nothing and yields the instruction counts the cells carry.
	b, err := json.Marshal(cells)
	if err != nil {
		return nil, err
	}
	parts := [][]byte{b}
	var sims []*multiprog.CoRunResult
	for _, size := range sizes {
		for _, m := range mixes {
			c := cfg
			c.LLCPaperBytes = size
			refs := make([]spec.BenchRef, len(m.Apps))
			for i, a := range m.Apps {
				refs[i] = spec.Ref(a)
			}
			v, err := eng.RunSpec(spec.MustNew(spec.CoRunSimParams{Mix: m.Name, Apps: refs, Cfg: c}))
			if err != nil {
				return nil, err
			}
			sim := v.(*multiprog.CoRunResult)
			sims = append(sims, sim)
			b, err := spec.Codecs()[spec.KindCoRunSim].Encode(sim)
			if err != nil {
				return nil, err
			}
			parts = append(parts, b)
		}
	}
	rep.Digest = digest(parts)
	var instr, cycles, acc, l1hits, miss float64
	var apps int
	for _, s := range sims {
		for _, a := range s.Apps {
			instr += float64(a.Stats.Instructions)
			cycles += float64(a.Stats.Cycles)
			acc += float64(a.Stats.MemAccesses)
			l1hits += float64(a.Stats.L1DHits)
			miss += a.MissRatio
			apps++
		}
	}
	rep.Instr = instr
	if !rc.traced {
		return rep, nil
	}

	rec.flush()
	self := selfByName(tr.Spans())
	for _, k := range []string{"corun-profile", "corun-cal", "corun-warm", "corun-sim"} {
		layer["runner.job_s."+k] = self[k].Seconds()
	}
	layer["cpu.instructions"] = instr
	layer["cpu.cycles"] = cycles
	layer["cache.l1d_hit_rate"] = l1hits / acc
	layer["cache.llc_miss_ratio"] = miss / float64(apps)
	layer["multiprog.sim_ns_per_access"] = float64(self["corun-sim"].Nanoseconds()) / acc
	var cpiErr float64
	var n int
	for _, c := range cells {
		for _, a := range c.Apps {
			cpiErr += a.CPIError()
			n++
		}
	}
	layer["multiprog.corun_cpi_err"] = cpiErr / float64(n)
	rep.Layer = layer
	rep.Spans = tr.Spans()
	return rep, nil
}
