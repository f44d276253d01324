// Package core implements DeLorean, the paper's primary contribution:
// directed statistical warming (DSW) driven by a time-traveling (TT)
// multi-pass pipeline.
//
// Each pass is a separate instance of the same deterministic execution
// (the paper's separate gem5/KVM processes):
//
//	Scout      — fast-forwards (VFF) to each detailed region, simulates the
//	             30k-instruction detailed-warming window functionally to
//	             build the lukewarm filter, and records the key cachelines:
//	             unique lines in the region whose first access the lukewarm
//	             state cannot resolve.
//	Explorer-k — goes "back in time": profiles the window of 5M/50M/100M/1B
//	             (paper-scale) instructions before the region. Explorer-1
//	             uses functional simulation; Explorer-2..4 use virtualized
//	             directed profiling (page-protection watchpoints) over only
//	             the keys its predecessors could not resolve. All engaged
//	             Explorers also sample the sparse vicinity reuse
//	             distribution.
//	Analyst    — runs detailed warming plus the detailed region with the
//	             DSW classifier (warm.DSWOracle) installed.
//
// Passes communicate per region and only ever move forward through the
// execution; RunSequential drives them region-at-a-time for determinism,
// and RunPipelined overlaps them with goroutines connected by channels
// (the paper's OS pipes), producing identical results.
package core

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/statstack"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// RegionData flows from the Scout through the Explorers to the Analyst.
// It is exported so design-space exploration (internal/dse) can feed one
// Scout/Explorer warm-up into many parallel Analysts (§3.3).
type RegionData struct {
	M     int
	Start uint64 // absolute instruction index of the region start
	// Keys holds the keys still unresolved; Records accumulates resolved
	// key reuses as the data moves through the Explorers.
	Keys     []reuse.KeySpec
	Records  []reuse.KeyRecord
	Vicinity *stats.RDHist
	Assoc    *statstack.AssocModel
	Engaged  int
}

// AllRecords returns the resolved records plus not-found placeholders for
// the remaining keys (the form the DSW oracle consumes).
func (rd *RegionData) AllRecords() []reuse.KeyRecord {
	out := append([]reuse.KeyRecord(nil), rd.Records...)
	for _, ks := range rd.Keys {
		out = append(out, reuse.KeyRecord{Line: ks.Line, FirstMem: ks.FirstMem})
	}
	return out
}

// DeLorean evaluates benchmarks with directed statistical warming through
// time traveling. Construct with New, then call RunSequential or
// RunPipelined.
type DeLorean struct {
	Prof *workload.Profile
	Cfg  warm.Config

	// index is the run's stream-position index, shared by every pass
	// engine: the first pass to fast-forward across a span walks it, the
	// others seek (DESIGN.md §15).
	index     *workload.Index
	scout     *vm.Engine
	explorers []*vm.Engine
	analyst   *vm.Engine

	res            *Result
	engagedRegions []int
}

// Result extends warm.Result with per-pass ledgers: the time-traveling
// pipeline overlaps its passes across regions, so the simulated evaluation
// time is the slowest pass, not the sum (§3.2).
type Result struct {
	warm.Result
	PassCounters map[string]*stats.Counters
	// Analysts may be replicated for design-space exploration; the base
	// pipeline has exactly one.
	AnalystSeconds float64
	WarmingSeconds float64
}

// SimSecondsPipelined returns the simulated wall time of the pipelined
// evaluation: the slowest pass bounds steady-state throughput.
func (r *Result) SimSecondsPipelined(cm vm.CostModel) float64 {
	var maxS float64
	for _, c := range r.PassCounters {
		if s := cm.Seconds(c); s > maxS {
			maxS = s
		}
	}
	return maxS
}

// New builds a DeLorean evaluation for one benchmark.
func New(prof *workload.Profile, cfg warm.Config) *DeLorean {
	d := &DeLorean{Prof: prof, Cfg: cfg, index: workload.NewIndex(prof, cfg.Scale)}
	d.scout = d.NewPassEngine()
	for range cfg.ExplorerWindows {
		d.explorers = append(d.explorers, d.NewPassEngine())
	}
	d.analyst = d.NewPassEngine()
	d.res = &Result{
		Result: warm.Result{Bench: prof.Name, Method: "DeLorean",
			Counters: stats.NewCounters()},
		PassCounters: make(map[string]*stats.Counters),
	}
	return d
}

// NewPassEngine returns an engine over a fresh program of the run's
// benchmark whose fast-forwards share the run's position index. Design-
// space exploration builds its extra Analysts with it.
func (d *DeLorean) NewPassEngine() *vm.Engine {
	eng := vm.NewEngine(d.Prof.NewProgram(d.Cfg.Scale))
	eng.Index = d.index
	return eng
}

// RunSequential evaluates all regions pass-by-pass in a deterministic
// order and returns the aggregated result.
func (d *DeLorean) RunSequential() *Result {
	for m := 0; m < d.Cfg.Regions; m++ {
		if d.Cfg.Cancelled() {
			break // partial; the caller discards it via its context error
		}
		msg := d.ScoutRegion(m)
		for k := range d.explorers {
			d.ExploreRegion(k, msg)
		}
		d.AnalyzeRegion(msg)
	}
	return d.finish()
}

// RunPipelined evaluates the regions with one goroutine per pass,
// connected by channels — the paper's pipelined TT arrangement. The
// results are identical to RunSequential.
func (d *DeLorean) RunPipelined() *Result {
	nStages := 1 + len(d.explorers)
	chans := make([]chan *RegionData, nStages)
	for i := range chans {
		chans[i] = make(chan *RegionData, 1)
	}
	go func() {
		for m := 0; m < d.Cfg.Regions; m++ {
			chans[0] <- d.ScoutRegion(m)
		}
		close(chans[0])
	}()
	for k := range d.explorers {
		k := k
		go func() {
			for msg := range chans[k] {
				d.ExploreRegion(k, msg)
				chans[k+1] <- msg
			}
			close(chans[k+1])
		}()
	}
	for msg := range chans[nStages-1] {
		d.AnalyzeRegion(msg)
	}
	return d.finish()
}

// scoutRegion fast-forwards to region m, replays the detailed-warming
// window functionally to build the lukewarm filter, and extracts the key
// cachelines from the region.
func (d *DeLorean) ScoutRegion(m int) *RegionData {
	cfg := d.Cfg
	eng := d.scout
	start := cfg.RegionStart(m)
	warmStart := start - cfg.DetailWarm

	eng.Prop = true
	eng.FastForwardTo(warmStart)

	// Lukewarm filter: a small functional hierarchy warmed for DetailWarm
	// instructions. Lines whose first in-region access it can serve need no
	// key reuse at all — for cache-friendly benchmarks (bwaves) this
	// filters nearly everything and no Explorer engages (Fig. 8, <1 avg).
	luke := cache.NewHierarchy(cfg.HierConfig(), nil)
	eng.Prop = false
	eng.RunFunc(cfg.DetailWarm, false, func(ins *workload.Instr, a *mem.Access) {
		luke.WarmInstr(ins.FetchLine)
		if a != nil {
			luke.WarmData(a.Line())
		}
	})

	msg := &RegionData{
		M: m, Start: start,
		Vicinity: &stats.RDHist{},
		Assoc:    statstack.NewAssocModel(),
	}
	var seen mem.FlatSet[mem.Line]
	seen.Grow(256)
	eng.RunFunc(cfg.RegionLen, false, func(ins *workload.Instr, a *mem.Access) {
		luke.WarmInstr(ins.FetchLine)
		if a == nil {
			return
		}
		l := a.Line()
		if !seen.Add(l) {
			luke.WarmData(l)
			return
		}
		// First in-region access: a lukewarm hit at either level resolves
		// it; otherwise the line is a key cacheline. Probe before warming —
		// the access itself installs the line.
		hit := luke.L1D.Probe(l) || luke.LLC.Probe(l)
		luke.WarmData(l)
		if hit && !cfg.NoLukewarmFilter {
			return
		}
		msg.Keys = append(msg.Keys, reuse.KeySpec{Line: l, FirstMem: a.MemIdx})
	})
	eng.Counters.Add("fix/keys_total", float64(len(msg.Keys)))
	eng.Counters.Add("fix/region_unique_lines", float64(seen.Len()))
	return msg
}

// exploreRegion runs Explorer k (0-based) over its window segment for the
// message's region, resolving key reuses and sampling the vicinity.
func (d *DeLorean) ExploreRegion(k int, msg *RegionData) {
	cfg := d.Cfg
	eng := d.explorers[k]
	if len(msg.Keys) == 0 {
		return // not engaged: pure fast-forward, deferred until needed
	}
	msg.Engaged++

	segStart := msg.Start - cfg.WindowInstr(k)
	segEnd := msg.Start
	if k > 0 {
		// Predecessors proved there is no access in the nearer windows;
		// profiling stops at the previous window's edge.
		segEnd = msg.Start - cfg.WindowInstr(k-1)
	}
	eng.Prop = true
	eng.FastForwardTo(segStart)

	collector := reuse.NewKeyCollector(msg.Keys)
	var keySet mem.FlatSet[mem.Line]
	keySet.Grow(len(msg.Keys))
	for _, ks := range msg.Keys {
		keySet.Add(ks.Line)
	}
	vicinityEvery := cfg.VicinityInterval()
	sampler := reuse.NewForwardSampler(float64(vicinityEvery), false)

	span := segEnd - segStart
	if k == 0 {
		// Explorer-1: functional directed profiling (gem5 atomic mode).
		// Vicinity sampling intervals count instructions, like the VDP
		// sampling stops.
		instrCount := uint64(0)
		eng.RunFunc(span, false, func(ins *workload.Instr, a *mem.Access) {
			instrCount++
			if a == nil {
				return
			}
			l := a.Line()
			if keySet.Has(l) {
				collector.Observe(a)
			}
			sampler.Complete(a)
			if instrCount >= vicinityEvery {
				instrCount = 0
				sampler.Start(a)
			}
		})
	} else {
		// Explorer-2..4: virtualized directed profiling. Watchpoints stay
		// armed on key lines for the whole segment (only the *last* access
		// matters), so every page co-tenant access costs a trigger.
		wps := vm.NewWatchpoints()
		for _, ks := range msg.Keys {
			wps.Watch(ks.Line)
		}
		eng.RunVDP(span, &vm.VDPConfig{
			WPs:           wps,
			TriggersFixed: true,
			SampleEvery:   vicinityEvery,
			OnSample: func(a *mem.Access) {
				if sampler.Start(a) {
					wps.Watch(a.Line())
				}
			},
			OnTrigger: func(a *mem.Access) {
				l := a.Line()
				isKey := keySet.Has(l)
				if isKey {
					collector.Observe(a)
				}
				if sampler.Complete(a) && !isKey {
					wps.Unwatch(l)
				}
			},
		})
	}
	sampler.AbandonPending(true)

	found, missing := collector.Finalize(k + 1)
	msg.Records = append(msg.Records, found...)
	msg.Keys = missing
	msg.Vicinity.Merge(sampler.Hist)
	for _, r := range found {
		msg.Assoc.AddLine(r.Line)
	}
	// Vicinity sample counts are scale-invariant: the window shrinks by S
	// and the sampling interval shrinks by S (DESIGN.md §5).
	eng.Counters.Add("fix/reuse_vicinity", float64(sampler.Completed))
	eng.Counters.Add(keyCounter(k+1), float64(len(found)))
}

func keyCounter(explorer int) string {
	return "fix/keys_e" + strconv.Itoa(explorer)
}

// explorerName is the ledger name of Explorer k (0-based).
func explorerName(k int) string {
	return "explorer-" + strconv.Itoa(k+1)
}

// analyzeRegion runs the Analyst: detailed warming plus the detailed
// region under the DSW classifier built from the Explorers' findings.
func (d *DeLorean) AnalyzeRegion(msg *RegionData) {
	cfg := d.Cfg
	eng := d.analyst
	warmStart := msg.Start - cfg.DetailWarm
	eng.Prop = true
	eng.FastForwardTo(warmStart)

	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	core := cpu.NewCore(cfg.CPU, hier, nil)
	// Unresolved keys become not-found records (cold misses).
	oracle := warm.NewDSWOracle(msg.AllRecords(), msg.Vicinity, msg.Assoc, hier)
	rr := warm.EvalRegion(cfg, eng, core, oracle)
	d.res.Regions = append(d.res.Regions, rr)
	d.engagedRegions = append(d.engagedRegions, msg.Engaged)
	eng.Counters.Add("fix/keys_unresolved", float64(len(msg.Keys)))
}

// finish merges the per-pass ledgers and computes the Explorer metrics.
func (d *DeLorean) finish() *Result {
	r := d.res
	r.PassCounters["scout"] = d.scout.Counters
	for i, e := range d.explorers {
		r.PassCounters[explorerName(i)] = e.Counters
	}
	r.PassCounters["analyst"] = d.analyst.Counters
	// Merge in a fixed pass order, not map order: float addition is not
	// associative, and the aggregate must be bit-identical across runs for
	// the golden-figure and determinism tests.
	r.Counters.Merge(d.scout.Counters)
	for _, e := range d.explorers {
		r.Counters.Merge(e.Counters)
	}
	r.Counters.Merge(d.analyst.Counters)
	var engaged int
	for _, e := range d.engagedRegions {
		engaged += e
	}
	if n := len(d.engagedRegions); n > 0 {
		r.AvgExplorers = float64(engaged) / float64(n)
	}
	// KeysPerExplorer is a fixed-size array sized for the paper's four
	// windows; configurations with more Explorers keep the full breakdown
	// in the fix/keys_eN counters, and the array holds the first four.
	for k := 1; k <= len(d.explorers) && k < len(r.KeysPerExplorer); k++ {
		r.KeysPerExplorer[k] = uint64(r.Counters.Get(keyCounter(k)))
	}
	r.KeysPerExplorer[0] = uint64(r.Counters.Get("fix/keys_unresolved"))
	cm := d.Cfg.Cost
	r.WarmingSeconds = cm.Seconds(d.scout.Counters)
	for _, e := range d.explorers {
		r.WarmingSeconds += cm.Seconds(e.Counters)
	}
	r.AnalystSeconds = cm.Seconds(d.analyst.Counters)
	return r
}

// MemAccesses returns the total number of memory accesses generated across
// all pass programs so far — the work unit the perf harness (internal/perf)
// normalizes its timings against.
func (d *DeLorean) MemAccesses() uint64 {
	n := d.scout.Prog.MemIndex() + d.analyst.Prog.MemIndex()
	for _, e := range d.explorers {
		n += e.Prog.MemIndex()
	}
	return n
}

// PassLedgers exposes the per-pass event ledgers ("scout", "explorer-1"..,
// "analyst"); design-space exploration uses them to account the shared
// warm-up separately from the per-configuration Analysts.
func (d *DeLorean) PassLedgers() map[string]*stats.Counters {
	out := map[string]*stats.Counters{
		"scout":   d.scout.Counters,
		"analyst": d.analyst.Counters,
	}
	for i, e := range d.explorers {
		out[explorerName(i)] = e.Counters
	}
	return out
}

// Run is the convenience entry point used by the sampling layer: it
// evaluates the benchmark sequentially (deterministic) and returns the
// result.
func Run(prof *workload.Profile, cfg warm.Config) *Result {
	return New(prof, cfg).RunSequential()
}
