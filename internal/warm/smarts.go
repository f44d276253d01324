package warm

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/vm"
	"repro/internal/workload"
)

// RunSMARTS evaluates one benchmark with functional warming, the SMARTS
// methodology [34]: between detailed regions, every instruction runs
// through functional simulation that keeps the caches and the branch
// predictor warm; each region then gets detailed warming plus detailed
// simulation on the *continuously warm* state. It is the accuracy
// reference for Figures 9, 10, 13 and 14, and the speed baseline of
// Figure 5.
func RunSMARTS(prof *workload.Profile, cfg Config) *Result {
	prog := prof.NewProgram(cfg.Scale)
	eng := vm.NewEngine(prog)
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	bp := cpu.NewBranchPred(cfg.CPU.BP)
	core := cpu.NewCore(cfg.CPU, hier, bp)

	res := &Result{Bench: prof.Name, Method: "SMARTS", Counters: eng.Counters}
	for m := 0; m < cfg.Regions; m++ {
		if cfg.Cancelled() {
			return res // partial; the caller discards it via its context error
		}
		warmStart := cfg.RegionStart(m) - cfg.DetailWarm
		// Functional warming across the whole gap: cache tags, replacement
		// state and predictor all stay warm. Cost scales with the gap.
		eng.Prop = true
		n := warmStart - prog.InstrIndex()
		eng.RunFunc(n, true, func(chunk workload.InstrBatch, _, _ uint64) {
			WarmChunk(hier, bp, chunk)
		})
		res.Regions = append(res.Regions, EvalRegion(cfg, eng, core, nil))
	}
	return res
}

// WarmChunk is the exact functional-warming kernel: it replays one decoded
// chunk through h in program order — every fetch through the L1I (and the
// LLC on a miss), every load and store through the L1D and the LLC — and,
// when bp is non-nil, trains bp on every branch. The result is
// bit-identical to calling h.WarmInstr, h.WarmData and bp.PredictAndUpdate
// record by record (pinned by TestWarmChunkMatchesPerRecord).
//
// The I-side uses the fetch-line memo cpu.Core.RunBatch uses: a fetch of
// the line the previous fetch touched is a guaranteed L1I hit (that fetch
// left it resident, and nothing but fetches touches the private L1I), so
// its state update replays through Touch on the remembered way instead of
// a set search. The memo lives for one call only, so anything that
// touches the L1I between calls cannot invalidate it.
func WarmChunk(h *cache.Hierarchy, bp *cpu.BranchPred, chunk workload.InstrBatch) {
	l1i := h.L1I
	lastLine, lastWay := mem.Line(0), -1
	for i := range chunk {
		ins := &chunk[i]
		if ins.FetchLine == lastLine && lastWay >= 0 {
			l1i.Touch(lastWay)
		} else {
			h.WarmInstr(ins.FetchLine)
			lastLine, lastWay = ins.FetchLine, l1i.WayIndexOf(ins.FetchLine)
		}
		switch ins.Kind {
		case workload.KindLoad, workload.KindStore:
			h.WarmData(mem.LineOf(ins.Addr))
		case workload.KindBranch:
			if bp != nil {
				bp.PredictAndUpdate(ins.PC, ins.Taken)
			}
		}
	}
}
