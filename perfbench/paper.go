package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// paperScale sizes paper-sampling: at 1/512 one comparison takes 5.5–7.3 s
// on two cores, so a 30-second run measures about five of them.
const paperScale = 512

// passSumTolerance bounds how far the traced DeLorean re-drive's pass
// spans may sum from the runner's DeLorean job spans: both execute the
// same passes, only at a different point of the run.
const passSumTolerance = 0.25

// probeInstr is how many instructions each workload probe generates per
// profile.
const probeInstr = 2_000_000

// paperJob is one sampling job of the comparison matrix.
type paperJob struct {
	prof   *workload.Profile
	method string
	cfg    warm.Config
}

// paperMatrix is the Fig 9/Fig 10 comparison on the `figures -short`
// configuration: three benchmarks under the three methods at an 8 MiB and
// a 512 MiB LLC.
func paperMatrix(seed uint64, tiny bool) []paperJob {
	cfg := warm.DefaultConfig()
	cfg.Regions = 4
	cfg.Scale = paperScale
	if tiny {
		cfg.Regions, cfg.Scale = 1, 8192
	}
	cfg.Seed = seed
	var jobs []paperJob
	for _, llc := range []uint64{8 << 20, 512 << 20} {
		c := cfg
		c.LLCPaperBytes = llc
		for _, p := range []*workload.Profile{workload.Bwaves(), workload.Mcf(), workload.CactusADM()} {
			for _, m := range []string{spec.MethodSMARTS, spec.MethodCoolSim, spec.MethodDeLorean} {
				jobs = append(jobs, paperJob{prof: p, method: m, cfg: c})
			}
		}
	}
	return jobs
}

// runPaper runs the comparison once on a fresh engine with no store, as a
// `figures` invocation does.
func runPaper(rc runConfig) (*repReport, error) {
	matrix := paperMatrix(rc.seed, rc.tiny)
	jobs := make([]runner.Job, len(matrix))
	var instr float64
	for i, j := range matrix {
		jobs[i] = spec.Job(spec.SamplingParams{Bench: spec.Ref(j.prof), Method: j.method, Cfg: j.cfg})
		instr += float64(j.cfg.TotalInstr())
	}
	rep := &repReport{SetupS: rc.setupDone(), Instr: instr, Ops: 1}
	if rc.setupOnly {
		return rep, nil
	}

	eng := runner.New(0)
	var tr *Tracer
	var rec *jobRecorder
	var before runtime.MemStats
	if rc.traced {
		tr = newTracer("paper-sampling")
		rec = &jobRecorder{tr: tr}
		eng.OnProgress = rec.onProgress
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	results := eng.RunMatrix(jobs)
	wall := time.Since(start)
	rep.WallS = wall.Seconds()
	rep.OpMs = []float64{float64(wall.Nanoseconds()) / 1e6}

	if n := eng.Executions(); n != uint64(len(jobs)) {
		rep.errorf("paper-sampling: %d executions for %d unique jobs", n, len(jobs))
	}
	codec := spec.Codecs()[spec.KindSampling]
	parts := make([][]byte, len(results))
	for i, v := range results {
		b, err := codec.Encode(v)
		if err != nil {
			return nil, err
		}
		parts[i] = b
	}
	rep.Digest = digest(parts)
	if !rc.traced {
		return rep, nil
	}

	rep.Layer = map[string]float64{}
	goStats(rep.Layer, &before)
	rec.flush()
	self := selfByName(tr.Spans())
	for _, m := range []string{spec.MethodSMARTS, spec.MethodCoolSim, spec.MethodDeLorean} {
		rep.Layer["runner.job_s.sampling."+m] = self["sampling."+m].Seconds()
	}
	runnerStats(rep.Layer, eng)
	paperLedgers(rep.Layer, matrix, results)
	redriveDeLorean(rep, tr, matrix, parts)
	probeWorkload(rep.Layer, tr, matrix)
	rep.Spans = tr.Spans()
	return rep, nil
}

// goStats reports the Go runtime's allocation and GC work since before.
func goStats(layer map[string]float64, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layer["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// runnerStats reports the engine's execution and cache counters.
func runnerStats(layer map[string]float64, eng *runner.Engine) {
	hits, _ := eng.CacheStats()
	layer["runner.executions"] = float64(eng.Executions())
	layer["runner.mem_hits"] = float64(hits)
	layer["runner.store_hits"] = float64(eng.StoreHits())
}

// ledgerInstr sums a ledger's instructions over every execution mode.
func ledgerInstr(c *stats.Counters) float64 {
	var n float64
	for _, k := range []string{vm.KindVFF, vm.KindFunc, vm.KindFuncCache, vm.KindVDP, vm.KindDetail} {
		n += ledgerGet(c, k)
	}
	return n
}

// ledgerGet reads a ledger counter under both its window-proportional and
// its fixed prefix.
func ledgerGet(c *stats.Counters, kind string) float64 {
	return c.Get("win/"+kind) + c.Get("fix/"+kind)
}

// paperLedgers reports the counts the results carry: instructions per
// execution mode, watchpoint work, DeLorean's keys, warming hits and the
// accuracy and modeled speed of the comparison.
func paperLedgers(layer map[string]float64, matrix []paperJob, results []any) {
	modes := map[string]string{
		"vm.instr_vff": vm.KindVFF, "vm.instr_func": vm.KindFunc, "vm.instr_funccache": vm.KindFuncCache,
		"vm.instr_vdp": vm.KindVDP, "vm.instr_detail": vm.KindDetail,
		"vm.triggers": vm.KindTrigger, "vm.sample_stops": vm.KindSampleStop,
	}
	var fp, engaged, lukewarm float64
	var nDeLorean int
	cmp := &sampling.Comparison{Cfg: matrix[0].cfg}
	byBench := map[string]int{}
	for i, v := range results {
		j := matrix[i]
		key := fmt.Sprintf("%s/%d", j.prof.Name, j.cfg.LLCPaperBytes)
		k, ok := byBench[key]
		if !ok {
			k = len(cmp.Benches)
			byBench[key] = k
			cmp.Benches = append(cmp.Benches, sampling.BenchResult{Bench: key})
		}
		var wr *warm.Result
		switch r := v.(type) {
		case *core.Result:
			wr = &r.Result
			cmp.Benches[k].DeLorean = r
			nDeLorean++
			engaged += r.AvgExplorers
			lukewarm += r.LukewarmHitRate()
			layer["core.keys_total"] += r.Counters.Get("fix/keys_total")
			layer["core.keys_unresolved"] += r.Counters.Get("fix/keys_unresolved")
		case *warm.Result:
			wr = r
			if j.method == spec.MethodSMARTS {
				cmp.Benches[k].SMARTS = r
			} else {
				cmp.Benches[k].CoolSim = r
			}
		}
		for name, kind := range modes {
			layer[name] += ledgerGet(wr.Counters, kind)
		}
		fp += ledgerGet(wr.Counters, vm.KindTriggerFP)
		if j.method != spec.MethodSMARTS {
			for _, reg := range wr.Regions {
				layer["warm.warming_hits."+j.method] += float64(reg.Stats.WarmingHits)
			}
		}
	}
	if t := layer["vm.triggers"]; t > 0 {
		layer["vm.trigger_fp_frac"] = fp / t
	}
	if nDeLorean > 0 {
		layer["core.explorers_engaged"] = engaged / float64(nDeLorean)
		layer["warm.lukewarm_hit_rate"] = lukewarm / float64(nDeLorean)
	}
	s := sampling.Summarize(cmp)
	layer["sampling.cpi_err_delorean"] = s.AvgErrDeLorean
	layer["sampling.cpi_err_coolsim"] = s.AvgErrCoolSim
	layer["sampling.modeled_speedup"] = s.AvgSpeedupVsSMARTS
}

// redriveDeLorean re-runs every DeLorean job of the matrix pass by pass
// through core.New and the pass methods, timing each call. The re-drive
// must reproduce the runner's result byte for byte, and its pass spans
// must sum to the runner's DeLorean job spans within passSumTolerance.
func redriveDeLorean(rep *repReport, tr *Tracer, matrix []paperJob, encoded [][]byte) {
	var idx []int
	for i, j := range matrix {
		if j.method == spec.MethodDeLorean {
			idx = append(idx, i)
		}
	}
	passT := make([]map[string]time.Duration, len(idx))
	instr := make([]map[string]float64, len(idx))
	errs := make([]error, len(idx))
	runner.ForEach(len(idx), 0, func(n int) {
		i := idx[n]
		j := matrix[i]
		res, times := redrive(tr, j)
		passT[n] = times
		instr[n] = map[string]float64{}
		for _, p := range corePasses {
			if c := res.PassCounters[p.ledger]; c != nil {
				instr[n][p.metric] = ledgerInstr(c)
			}
		}
		b, err := spec.Codecs()[spec.KindSampling].Encode(res)
		switch {
		case err != nil:
			errs[n] = err
		case string(b) != string(encoded[i]):
			errs[n] = fmt.Errorf("re-driven DeLorean %s/%d differs from the runner's result", j.prof.Name, j.cfg.LLCPaperBytes>>20)
		}
	})
	for _, err := range errs {
		if err != nil {
			rep.errorf("paper-sampling: %v", err)
		}
	}

	var passSum time.Duration
	for _, p := range corePasses {
		var t time.Duration
		var n float64
		for k := range idx {
			t += passT[k][p.metric]
			n += instr[k][p.metric]
		}
		passSum += t
		rep.Layer["core."+p.metric+"_s"] = t.Seconds()
		if n > 0 {
			rep.Layer["core."+p.metric+"_ns_per_instr"] = float64(t.Nanoseconds()) / n
		}
	}
	var jobSum time.Duration
	for _, s := range tr.Spans() {
		if s.Name == "sampling."+spec.MethodDeLorean && s.Tier == "execute" {
			jobSum += s.Dur()
		}
	}
	ratio := passSum.Seconds() / jobSum.Seconds()
	rep.Layer["core.pass_sum_ratio"] = ratio
	if ratio < 1-passSumTolerance || ratio > 1+passSumTolerance {
		rep.errorf("paper-sampling: DeLorean pass spans sum to %.3fs, job spans to %.3fs (ratio %.3f, tolerance %.2f)",
			passSum.Seconds(), jobSum.Seconds(), ratio, passSumTolerance)
	}
}

// redrive runs one DeLorean job region by region, pass by pass, under the
// seed the spec layer gives it, and returns the result with the host time
// of each pass.
func redrive(tr *Tracer, j paperJob) (*core.Result, map[string]time.Duration) {
	cfg := spec.SeedConfig(j.cfg, j.prof.Name, spec.MethodDeLorean, "")
	root := tr.reserve()
	start := time.Now()
	d := core.New(j.prof, cfg)
	times := map[string]time.Duration{}
	for m := 0; m < cfg.Regions; m++ {
		var msg *core.RegionData
		times["scout"] += tr.timed("core.scout", root, func() { msg = d.ScoutRegion(m) })
		for k := range cfg.ExplorerWindows {
			p := corePasses[1+k].metric
			times[p] += tr.timed("core."+p, root, func() { d.ExploreRegion(k, msg) })
		}
		times["analyst"] += tr.timed("core.analyst", root, func() { d.AnalyzeRegion(msg) })
	}
	// Every region has been driven; a run that stops before its first
	// region only merges the pass ledgers into the result.
	d.Cfg.Cancel = func() bool { return true }
	res := d.RunSequential()
	tr.finish(root, Span{Name: "core.delorean", Bench: j.prof.Name,
		Extra: fmt.Sprint(j.cfg.LLCPaperBytes), Start: tr.since(start), End: tr.since(time.Now())})
	return res, times
}

// probeWorkload times the stream generator alone on each benchmark of the
// matrix: Skip, the fast-forward path, and FillInstrBatch, the decode path
// of the timing core.
func probeWorkload(layer map[string]float64, tr *Tracer, matrix []paperJob) {
	seen := map[string]bool{}
	var skip, fill time.Duration
	var n float64
	for _, j := range matrix {
		if seen[j.prof.Name] {
			continue
		}
		seen[j.prof.Name] = true
		prog := j.prof.NewProgram(j.cfg.Scale)
		s := tr.timed("workload.skip", 0, func() { prog.Skip(probeInstr) })
		prog = j.prof.NewProgram(j.cfg.Scale)
		buf := make(workload.InstrBatch, 0, 8192)
		f := tr.timed("workload.fill", 0, func() {
			for done := uint64(0); done < probeInstr; {
				k := min(8192, probeInstr-done)
				buf.Reset()
				prog.FillInstrBatch(k, &buf)
				done += k
			}
		})
		skip, fill, n = skip+s, fill+f, n+probeInstr
	}
	layer["workload.skip_ns_per_instr"] = float64(skip.Nanoseconds()) / n
	layer["workload.fill_ns_per_instr"] = float64(fill.Nanoseconds()) / n
}
