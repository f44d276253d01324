// Package vm is the execution substrate standing in for the paper's
// KVM-plus-gem5 stack. An Engine drives a deterministic workload program
// in one of several execution modes, each charged to a simulated-time cost
// ledger at that mode's speed:
//
//   - virtualized fast-forwarding (VFF): nothing observes the stream;
//     near-native speed (KVM in the paper),
//   - functional simulation: every instruction is observed (gem5's atomic
//     CPU), optionally with cache warming (slower),
//   - virtualized directed profiling (VDP): near-native execution with
//     page-protection watchpoints; every access to a watched page — true
//     positive or not — pays a fixed trigger cost (KVM exit + signal
//     delivery + handler in the paper),
//   - detailed simulation is driven by cpu.Core directly; its cost is
//     charged through ChargeDetail.
//
// Reported speeds are derived from the ledger, not host wall-clock: the
// *shape* of every speed figure comes from counted events (instructions
// per mode, watchpoint triggers), and only the per-event constants below
// are calibrated against the paper's absolute numbers (DESIGN.md §5).
package vm

import (
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CostModel holds the per-event simulated-time constants.
type CostModel struct {
	VFFMIPS       float64 // KVM fast-forward
	FuncMIPS      float64 // atomic CPU, no cache model
	FuncCacheMIPS float64 // atomic CPU + cache warming (SMARTS FW)
	DetailMIPS    float64 // cycle-accurate OoO
	VDPMIPS       float64 // virtualized execution between watchpoint stops
	TriggerSec    float64 // one watchpoint stop (true or false positive)
}

// DefaultCostModel calibrates the constants so the reference methodologies
// land near the paper's absolute speeds (SMARTS ~1.3 MIPS, CoolSim ~21.9
// MIPS; §6.1). They are global constants, never tuned per benchmark.
func DefaultCostModel() CostModel {
	return CostModel{
		VFFMIPS:       2000,
		FuncMIPS:      20,
		FuncCacheMIPS: 1.6,
		DetailMIPS:    0.2,
		VDPMIPS:       2000,
		TriggerSec:    25e-6,
	}
}

// Ledger counter names. The "win/" prefix marks window-proportional events
// that the sampling layer extrapolates when reporting at paper scale; the
// "fix/" prefix marks per-region fixed costs (DESIGN.md §5).
const (
	KindVFF        = "instr_vff"
	KindFunc       = "instr_func"
	KindFuncCache  = "instr_funccache"
	KindDetail     = "instr_detail"
	KindVDP        = "instr_vdp"
	KindTrigger    = "trigger"
	KindTriggerFP  = "trigger_fp" // subset of triggers that were false positives
	KindSampleStop = "sample_stop"
)

// Seconds converts a ledger into simulated seconds under the cost model.
func (cm CostModel) Seconds(c *stats.Counters) float64 {
	var s float64
	for _, prefix := range []string{"win/", "fix/"} {
		s += c.Get(prefix+KindVFF) / (cm.VFFMIPS * 1e6)
		s += c.Get(prefix+KindFunc) / (cm.FuncMIPS * 1e6)
		s += c.Get(prefix+KindFuncCache) / (cm.FuncCacheMIPS * 1e6)
		s += c.Get(prefix+KindDetail) / (cm.DetailMIPS * 1e6)
		s += c.Get(prefix+KindVDP) / (cm.VDPMIPS * 1e6)
		s += c.Get(prefix+KindTrigger) * cm.TriggerSec
		s += c.Get(prefix+KindSampleStop) * cm.TriggerSec
	}
	return s
}

// The paged bitmap representation below packs one page's watched lines
// into a single uint64, which requires exactly 64 cachelines per page.
// Both constants underflow a uint64 conversion unless LinesPerPage == 64.
const (
	_ = uint64(mem.LinesPerPage - 64)
	_ = uint64(64 - mem.LinesPerPage)
)

// Watchpoints tracks watched cachelines, indexed by page — the paper's
// directed-profiling mechanism uses the page-protection hardware, so *any*
// access to a page containing a watched line triggers a stop.
//
// The page index is an open-addressing flat table mapping each watched
// page to a 64-bit bitmap of its watched lines, so the per-access
// WatchedPage check on the VDP hot path is a single probe and the
// per-window Clear retains all backing storage. The old map-of-maps
// representation survives as the reference oracle in the tests.
type Watchpoints struct {
	pages mem.FlatMap[mem.Page, uint64]
	n     int
}

// NewWatchpoints returns an empty set.
func NewWatchpoints() *Watchpoints {
	return &Watchpoints{}
}

func lineBit(l mem.Line) uint64 {
	return uint64(1) << (uint64(l) & (mem.LinesPerPage - 1))
}

// Watch protects line l.
func (w *Watchpoints) Watch(l mem.Line) {
	p, _ := w.pages.Upsert(mem.PageOfLine(l))
	if bit := lineBit(l); *p&bit == 0 {
		*p |= bit
		w.n++
	}
}

// Unwatch removes the watchpoint on l (no-op if absent).
func (w *Watchpoints) Unwatch(l mem.Line) {
	pg := mem.PageOfLine(l)
	p := w.pages.Ptr(pg)
	if p == nil {
		return
	}
	bit := lineBit(l)
	if *p&bit == 0 {
		return
	}
	*p &^= bit
	w.n--
	if *p == 0 {
		w.pages.Delete(pg)
	}
}

// WatchedPage reports whether any line of page p is watched.
func (w *Watchpoints) WatchedPage(p mem.Page) bool {
	return w.pages.Ptr(p) != nil
}

// WatchedLine reports whether l itself is watched.
func (w *Watchpoints) WatchedLine(l mem.Line) bool {
	p := w.pages.Ptr(mem.PageOfLine(l))
	return p != nil && *p&lineBit(l) != 0
}

// Count returns the number of watched lines.
func (w *Watchpoints) Count() int { return w.n }

// Clear removes all watchpoints, retaining the backing storage so the
// Explorer's per-window re-arming never reallocates.
func (w *Watchpoints) Clear() {
	w.pages.Reset()
	w.n = 0
}

// AccessHandler observes one memory access during functional execution.
type AccessHandler func(a *mem.Access)

// ChunkHandler observes one decoded chunk of functional execution: the
// chunk's instructions in program order, with the stream position of its
// first instruction (instrIdx) and of its first memory access (memIdx).
// The i-th instruction sits at instrIdx+i, and the memory accesses are
// numbered from memIdx in order (workload.Instr.Access builds their
// records). The chunk is the engine's scratch, valid only during the call.
type ChunkHandler func(chunk workload.InstrBatch, instrIdx, memIdx uint64)

// VDPConfig configures one directed-profiling run.
type VDPConfig struct {
	WPs *Watchpoints
	// OnTrigger is invoked for true-positive stops (the accessed line is
	// watched). False positives are charged and counted but not delivered.
	OnTrigger AccessHandler
	// SampleEvery, when non-zero, arms a sampling stop every SampleEvery
	// *instructions* (a performance-counter overflow in the paper); the
	// stop lands on the next memory access, which OnSample receives. This
	// is the mechanism both RSW and the vicinity sampler use to pick reuse
	// start points. Instruction-based intervals are what make CoolSim's
	// published schedule (40k/20k/10k over a 1 B gap) produce its published
	// ~340k samples per benchmark.
	SampleEvery uint64
	OnSample    AccessHandler
	// TriggersFixed charges watchpoint-trigger costs to the fixed ledger
	// regardless of Engine.Prop. DSW's key watchpoints use it: the number
	// of keys is a property of the detailed region and each key's
	// false-positive rate is scale-invariant (page density and window
	// length scale inversely), so trigger counts must not be extrapolated
	// with the window-proportional events (DESIGN.md §5).
	TriggersFixed bool
}

// Engine drives one program instance and charges its execution to a ledger.
type Engine struct {
	Prog     *workload.Program
	Counters *stats.Counters
	// Prop selects the ledger prefix: window-proportional ("win/") or
	// per-region fixed ("fix/"). Callers set it per phase.
	Prop bool
	// Index, when set, is the stream-position index FastForwardTo seeks
	// through and records into. Engines of one time-traveling run share
	// it, so a span of the stream is walked once per run rather than once
	// per pass. It changes host time only, never the program state or the
	// ledger.
	Index *workload.Index

	sampleCount uint64
	// Decode scratch of RunFunc and RunVDP, at most one chunk each.
	instrs workload.InstrBatch
	accs   mem.Batch
}

// NewEngine wraps prog with a fresh ledger.
func NewEngine(prog *workload.Program) *Engine {
	return &Engine{Prog: prog, Counters: stats.NewCounters(), Prop: true}
}

func (e *Engine) prefix() string {
	if e.Prop {
		return "win/"
	}
	return "fix/"
}

func (e *Engine) charge(kind string, n float64) {
	e.Counters.Add(e.prefix()+kind, n)
}

// FastForwardTo advances execution to absolute instruction index `to`
// under VFF, charging the whole span to the VFF ledger whether the program
// walked it or seeked across it through the engine's Index. It panics if
// the program is already past `to` — passes only ever travel forward;
// going "back in time" means a different pass.
func (e *Engine) FastForwardTo(to uint64) {
	cur := e.Prog.InstrIndex()
	if cur > to {
		panic("vm: FastForwardTo target is in the past")
	}
	if e.Index != nil {
		e.Index.SkipTo(e.Prog, to)
	} else {
		e.Prog.Skip(to - cur)
	}
	e.charge(KindVFF, float64(to-cur))
}

// RunFunc executes n instructions under functional simulation, handing h
// each decoded chunk in program order (cacheSim selects the slower
// functional-warming rate). The span is decoded chunk by chunk through
// FillInstrBatch into the engine's scratch; generation is open loop, so
// decoding a chunk before its handler runs changes nothing a handler
// sees, provided handlers take stream positions from the chunk's
// arguments, never from e.Prog, which is already at the chunk's end.
func (e *Engine) RunFunc(n uint64, cacheSim bool, h ChunkHandler) {
	for left := n; left > 0; {
		k := min(left, workload.ChunkLen)
		instrIdx := e.Prog.InstrIndex()
		memIdx := e.Prog.MemIndex()
		e.instrs.Reset()
		e.Prog.FillInstrBatch(k, &e.instrs)
		h(e.instrs, instrIdx, memIdx)
		left -= k
	}
	if cacheSim {
		e.charge(KindFuncCache, float64(n))
	} else {
		e.charge(KindFunc, float64(n))
	}
}

// RunVDP executes n instructions under virtualized directed profiling.
// Execution proceeds at near-native speed; each access to a watched page
// and each sampling stop is charged a trigger cost. The span is decoded
// chunk by chunk through FillBatch; the watchpoint and sampling checks run
// per record in program order, so a handler that arms or disarms a
// watchpoint affects the very next access, exactly as a per-instruction
// loop would. The sampling interval counts every instruction: a record
// advances it by its distance from the previous one, and the chunk's
// trailing non-memory instructions carry over to the next chunk and call.
func (e *Engine) RunVDP(n uint64, cfg *VDPConfig) {
	var triggers, falsePos, sampleStops float64
	every := cfg.SampleEvery
	for left := n; left > 0; {
		k := min(left, workload.ChunkLen)
		counted := e.Prog.InstrIndex() // instructions before it are in sampleCount
		e.accs.Reset()
		e.Prog.FillBatch(k, &e.accs)
		for i := range e.accs {
			a := &e.accs[i]
			isSample := false
			if every > 0 {
				e.sampleCount += a.InstrIdx + 1 - counted
				counted = a.InstrIdx + 1
				if e.sampleCount >= every {
					e.sampleCount = 0
					isSample = true
				}
			}
			watchedPage := cfg.WPs != nil && cfg.WPs.WatchedPage(a.Page())
			if !isSample && !watchedPage {
				continue
			}
			if isSample {
				sampleStops++
				if cfg.OnSample != nil {
					cfg.OnSample(a)
				}
			}
			if watchedPage {
				triggers++
				if cfg.WPs.WatchedLine(a.Line()) {
					if cfg.OnTrigger != nil {
						cfg.OnTrigger(a)
					}
				} else {
					falsePos++
				}
			}
		}
		if every > 0 {
			e.sampleCount += e.Prog.InstrIndex() - counted
		}
		left -= k
	}
	e.charge(KindVDP, float64(n))
	if cfg.TriggersFixed {
		e.Counters.Add("fix/"+KindTrigger, triggers)
		e.Counters.Add("fix/"+KindTriggerFP, falsePos)
		e.Counters.Add("fix/"+KindSampleStop, sampleStops)
	} else {
		e.charge(KindTrigger, triggers)
		e.charge(KindTriggerFP, falsePos)
		e.charge(KindSampleStop, sampleStops)
	}
}

// ChargeDetail records n instructions of detailed (cycle-accurate)
// simulation driven externally by cpu.Core.
func (e *Engine) ChargeDetail(n uint64) {
	e.charge(KindDetail, float64(n))
}
