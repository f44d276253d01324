package workload

import "repro/internal/mem"

// This file holds the per-instruction generator: the reference every
// production decode loop (FillBatch, FillInstrBatch, and Skip over
// FillBatch) is pinned against. It is the generator's specification — one
// instruction per call, every field materialized — and production code
// never calls it.

// Next generates the next dynamic instruction into ins. It always succeeds:
// programs are infinite and the caller decides how far to run.
func (pr *Program) Next(ins *Instr) {
	if pr.instrIdx >= pr.nextPhaseEdge {
		pr.rebuildWeights()
	}
	r := pr.rng.Uint64()
	pr.instrIdx++
	// Advance the code walk: one fetch line per 8 instructions on average
	// models a fetch-block-grained I-side without per-instruction cost.
	pr.codePos++
	if pr.codePos>>3 >= pr.codeLines {
		pr.codePos = 0
	}
	ins.FetchLine = mem.Line(codeBaseLine + pr.codePos>>3)
	// Register dependence: most instructions start fresh chains
	// (immediates, loop counters, loads off loop-invariant bases); the
	// dependence-free fraction grows with the profile's ILP. Without it the
	// timing model strings every load into one transitive chain and CPI
	// explodes far beyond what an 8-wide OoO core with a 192-entry ROB
	// exhibits — the whole point of out-of-order execution is that real
	// chains are short and overlap.
	depBits := uint32(r >> 48)
	if depBits&0xf < pr.noDepTh {
		ins.DepDist = 0
	} else {
		ins.DepDist = 1 + pr.depMod(depBits>>4)
	}
	sel := uint32(r & 0xffff)
	switch {
	case sel < pr.thMem:
		pr.genMemInstr(ins, uint32(r>>16))
	case sel < pr.thBranch:
		pr.genBranch(ins, uint32(r>>16))
	default:
		ins.Addr = 0
		ins.Taken = false
		if uint32(r>>16)&0xffff < pr.thFP {
			ins.Kind = KindFP
			ins.PC = 0x900000 + uint64(r>>32)%64*4
			ins.Lat = 4
		} else {
			ins.Kind = KindALU
			ins.PC = 0xa00000 + uint64(r>>32)%64*4
			ins.Lat = 1
		}
	}
}
