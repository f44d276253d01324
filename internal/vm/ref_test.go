package vm

import (
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// nextInstr decodes exactly one instruction: the per-instruction stream
// the reference loops below consume.
func nextInstr(prog *workload.Program, one *workload.InstrBatch) *workload.Instr {
	one.Reset()
	prog.FillInstrBatch(1, one)
	return &(*one)[0]
}

// refRunFunc is the per-instruction functional loop RunFunc is pinned
// against: one decode and one handler call, on a one-instruction chunk,
// per instruction.
func (e *Engine) refRunFunc(n uint64, cacheSim bool, h ChunkHandler) {
	var one workload.InstrBatch
	for i := uint64(0); i < n; i++ {
		memIdx := e.Prog.MemIndex()
		instrIdx := e.Prog.InstrIndex()
		nextInstr(e.Prog, &one)
		h(one, instrIdx, memIdx)
	}
	if cacheSim {
		e.charge(KindFuncCache, float64(n))
	} else {
		e.charge(KindFunc, float64(n))
	}
}

// refRunVDP is the per-instruction directed-profiling loop RunVDP is
// pinned against: the sampling interval counts one instruction at a time.
func (e *Engine) refRunVDP(n uint64, cfg *VDPConfig) {
	var one workload.InstrBatch
	var a mem.Access
	var triggers, falsePos, sampleStops float64
	for i := uint64(0); i < n; i++ {
		memIdx := e.Prog.MemIndex()
		instrIdx := e.Prog.InstrIndex()
		ins := nextInstr(e.Prog, &one)
		if cfg.SampleEvery > 0 {
			e.sampleCount++
		}
		if ins.Kind != workload.KindLoad && ins.Kind != workload.KindStore {
			continue
		}
		isSample := false
		if cfg.SampleEvery > 0 && e.sampleCount >= cfg.SampleEvery {
			e.sampleCount = 0
			isSample = true
		}
		watchedPage := cfg.WPs != nil && cfg.WPs.WatchedPage(mem.PageOf(ins.Addr))
		if !isSample && !watchedPage {
			continue
		}
		a = mem.Access{PC: ins.PC, Addr: ins.Addr,
			Write: ins.Kind == workload.KindStore, MemIdx: memIdx, InstrIdx: instrIdx}
		if isSample {
			sampleStops++
			if cfg.OnSample != nil {
				cfg.OnSample(&a)
			}
		}
		if watchedPage {
			triggers++
			if cfg.WPs.WatchedLine(a.Line()) {
				if cfg.OnTrigger != nil {
					cfg.OnTrigger(&a)
				}
			} else {
				falsePos++
			}
		}
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

// event is one handler callback as a handler sees it.
type event struct {
	kind string
	ins  workload.Instr
	a    mem.Access
}

// passDriver runs one engine through a fixed script of functional and VDP
// calls, logging every callback. Its VDP handlers arm and disarm
// watchpoints mid-chunk the way CoolSim's and the Explorers' do: a sample
// watches its line and the next one (same page, so the very next access
// there must trigger), and every other true trigger unwatches its line.
type passDriver struct {
	eng      *Engine
	wps      *Watchpoints
	log      []event
	triggers int
	batched  bool
}

func (d *passDriver) runFunc(n uint64, cacheSim bool) {
	h := func(chunk workload.InstrBatch, instrIdx, memIdx uint64) {
		for i := range chunk {
			ins := &chunk[i]
			ev := event{kind: "instr", ins: *ins}
			if ins.IsMem() {
				ev.kind, ev.a = "mem", ins.Access(memIdx, instrIdx+uint64(i))
				memIdx++
			}
			d.log = append(d.log, ev)
		}
	}
	if d.batched {
		d.eng.RunFunc(n, cacheSim, h)
	} else {
		d.eng.refRunFunc(n, cacheSim, h)
	}
}

func (d *passDriver) runVDP(n, every uint64, fixed bool) {
	cfg := &VDPConfig{
		WPs:           d.wps,
		SampleEvery:   every,
		TriggersFixed: fixed,
		OnSample: func(a *mem.Access) {
			d.log = append(d.log, event{kind: "sample", a: *a})
			d.wps.Watch(a.Line())
			d.wps.Watch(a.Line() ^ 1)
		},
		OnTrigger: func(a *mem.Access) {
			d.log = append(d.log, event{kind: "trigger", a: *a})
			if d.triggers++; d.triggers%2 == 0 {
				d.wps.Unwatch(a.Line())
			}
		},
	}
	if d.batched {
		d.eng.RunVDP(n, cfg)
	} else {
		d.eng.refRunVDP(n, cfg)
	}
}

// TestBatchedPassesMatchPerInstrReference pins RunFunc and RunVDP to the
// per-instruction reference loops: the exact callback sequence (kind,
// instruction, access record), the ledger, the carried sampling interval
// and the final program position, over a script that crosses chunk
// boundaries inside a call, ends calls mid-chunk (n not a multiple of the
// chunk, n = 0, n = 1), carries a sampling interval across calls, changes
// SampleEvery between calls as CoolSim's schedule does, switches sampling
// off and on, and arms and disarms watchpoints from the handlers.
func TestBatchedPassesMatchPerInstrReference(t *testing.T) {
	const c = workload.ChunkLen
	script := func(d *passDriver) {
		d.runVDP(0, 100, false)
		d.runVDP(3*c+17, 700, false) // sampling interval longer than a chunk
		d.runVDP(5, 700, false)      // carried across calls
		d.runFunc(0, false)
		d.runFunc(c+1, false)
		d.runVDP(1000, 37, true) // SampleEvery changed between calls
		d.runVDP(2*c, 0, false)  // sampling off: the interval is frozen
		d.runVDP(999, c, false)
		d.eng.Prop = false
		d.runVDP(1, 3, false)
		d.runFunc(3*c, true)
		d.runVDP(4*c+1, 5, true)
		d.eng.Prop = true
		d.runVDP(c-1, 2*c+3, false)
		d.runFunc(7, false)
	}
	drive := func(batched bool) *passDriver {
		d := &passDriver{eng: NewEngine(testProg()), wps: NewWatchpoints(), batched: batched}
		script(d)
		return d
	}
	ref, bat := drive(false), drive(true)

	kinds := map[string]int{}
	for _, ev := range ref.log {
		kinds[ev.kind]++
	}
	for _, k := range []string{"instr", "mem", "sample", "trigger"} {
		if kinds[k] == 0 {
			t.Fatalf("script never produced a %q callback: %v", k, kinds)
		}
	}
	if len(bat.log) != len(ref.log) {
		t.Errorf("batched passes made %d callbacks, reference %d", len(bat.log), len(ref.log))
	}
	for i := range min(len(bat.log), len(ref.log)) {
		if bat.log[i] != ref.log[i] {
			t.Fatalf("callback %d diverges:\nbatched   %+v\nreference %+v", i, bat.log[i], ref.log[i])
		}
	}
	if !reflect.DeepEqual(bat.eng.Counters, ref.eng.Counters) {
		t.Errorf("ledger diverges:\nbatched\n%s\nreference\n%s", bat.eng.Counters, ref.eng.Counters)
	}
	if bat.eng.sampleCount != ref.eng.sampleCount {
		t.Errorf("carried sampling interval %d, reference %d", bat.eng.sampleCount, ref.eng.sampleCount)
	}
	if !reflect.DeepEqual(bat.eng.Prog.Position(), ref.eng.Prog.Position()) {
		t.Error("final program position diverges")
	}
	if !reflect.DeepEqual(bat.wps.State(), ref.wps.State()) {
		t.Error("final watchpoint set diverges")
	}
	if cap(bat.eng.instrs) > c || cap(bat.eng.accs) > c {
		t.Errorf("engine scratch grew past one chunk: %d instrs, %d accesses", cap(bat.eng.instrs), cap(bat.eng.accs))
	}
}
