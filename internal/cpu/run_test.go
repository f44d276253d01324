package cpu

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Run is the per-instruction timing loop, the oracle RunBatch is pinned
// against: it decodes one instruction at a time and times it through the
// core's fields and the hierarchy's full AccessData path, with none of
// RunBatch's locals, fetch-line memo or inlined L1D hit. Statistics and
// all state must match RunBatch(prog, n) bit for bit.
func (c *Core) Run(prog *workload.Program, n uint64) Stats {
	var st Stats
	st.Instructions = n
	mshrs := c.mshrs
	startCycle := c.cycle
	var one workload.InstrBatch
	for i := uint64(0); i < n; i++ {
		memIdx := prog.MemIndex()
		instrIdx := prog.InstrIndex()
		one.Reset()
		prog.FillInstrBatch(1, &one)
		ins := one[0]

		// Front end: width, redirect and ROB constraints.
		c.widthCount++
		if c.widthCount >= c.Cfg.Width {
			c.widthCount = 0
			c.cycle++
		}
		if c.fetchStall > c.cycle {
			c.cycle = c.fetchStall
			c.widthCount = 0
		}
		// Instruction fetch: an I-side miss stalls the front end.
		if fl := c.Hier.AccessInstr(ins.FetchLine); fl > c.Hier.Cfg.L1I.HitLat {
			c.cycle += uint64(fl - c.Hier.Cfg.L1I.HitLat)
		}
		// ROB: cannot dispatch past the completion of the instruction that
		// frees our slot.
		slot := c.robSlot
		if c.completion[slot] > c.cycle {
			c.cycle = c.completion[slot]
			c.widthCount = 0
		}
		dispatch := c.cycle

		// Register dependence.
		ready := dispatch
		dep := int(ins.DepDist)
		if dep >= 1 && dep <= c.Cfg.ROB {
			prodSlot := slot - dep
			if prodSlot < 0 {
				prodSlot += c.Cfg.ROB
			}
			if t := c.completion[prodSlot]; t > ready {
				ready = t
			}
		}

		var complete uint64
		switch ins.Kind {
		case workload.KindLoad, workload.KindStore:
			st.MemAccesses++
			line := mem.LineOf(ins.Addr)
			// Drain MSHRs whose miss has returned.
			for c.mshrFree.n > 0 && c.mshrFree.min() <= ready {
				c.mshrFree.popMin()
			}
			if t, inFlight := c.outstanding.Get(line); inFlight && t > ready {
				// Delayed hit: coalesce onto the existing MSHR.
				st.MSHRHits++
				complete = t
			} else {
				if inFlight {
					c.outstanding.Delete(line)
				}
				c.acc = mem.Access{PC: ins.PC, Addr: ins.Addr,
					Write: ins.Kind == workload.KindStore, MemIdx: memIdx, InstrIdx: instrIdx}
				r := c.Hier.AccessData(&c.acc)
				if r.WarmingHit {
					st.WarmingHits++
				}
				switch r.Served {
				case cache.LevelL1:
					st.L1DHits++
				case cache.LevelLLC:
					st.LLCHits++
				default:
					st.MemServed++
				}
				issue := ready
				if r.Served != cache.LevelL1 {
					// Allocate an MSHR; stall issue if none free.
					if c.mshrFree.n >= mshrs {
						if t := c.mshrFree.min(); t > issue {
							issue = t
						}
						c.mshrFree.popMin()
					}
					complete = issue + uint64(r.Latency)
					c.mshrFree.push(complete)
					c.outstanding.Put(line, complete)
					if complete < c.outMin {
						c.outMin = complete
					}
					if c.outstanding.Len() > c.pruneLen && c.outMin <= ready {
						c.pruneOutstanding(ready)
					}
				} else {
					complete = issue + uint64(r.Latency)
				}
			}
			if ins.Kind == workload.KindStore {
				// Stores retire through the store buffer; they occupy the
				// MSHR (modeled above) but do not stall dependents.
				complete = ready + 1
			}
		case workload.KindBranch:
			complete = ready + uint64(ins.Lat)
			st.BrLookups++
			if !c.BP.PredictAndUpdate(ins.PC, ins.Taken) {
				st.BrMispred++
				// Front end squashed until the branch resolves.
				if r := complete + c.Cfg.MispredictPenalty; r > c.fetchStall {
					c.fetchStall = r
				}
			}
		default:
			complete = ready + uint64(ins.Lat)
		}

		c.completion[slot] = complete
		if slot++; slot == c.Cfg.ROB {
			slot = 0
		}
		c.robSlot = slot
		if complete > c.maxComplete {
			c.maxComplete = complete
		}
	}
	end := c.cycle
	if c.maxComplete > end {
		end = c.maxComplete
	}
	st.Cycles = end - startCycle
	// Advance the dispatch clock so the next interval starts after this
	// interval's critical path.
	c.cycle = end
	return st
}
