package workload

import "fmt"

// StreamPos is the serializable positional state of one memory stream.
type StreamPos struct {
	Pos       uint64 `json:"pos"`
	LastOff   uint64 `json:"last_off"`
	BurstLeft uint32 `json:"burst_left"`
}

// Position is the complete serializable positional state of a Program: the
// minimal set of mutable fields from which the infinite instruction stream
// continues bit-identically. Everything else in a Program (arena layout,
// weight thresholds, fastmod magics, the cumW/selLUT selection tables) is
// either a pure function of (Profile, scale) or — for the selection tables
// — a pure function of (Profile, scale, InstrIdx) rebuilt by Seek, so a
// Position plus the originating profile reconstructs the exact stream.
//
// Captured by Program.Position, restored by Program.Seek; the round-trip
// bit-identity is pinned by TestSeekMatchesStraightReplay across the full
// benchmark suite.
type Position struct {
	InstrIdx uint64 `json:"instr_idx"`
	MemIdx   uint64 `json:"mem_idx"`
	CodePos  uint64 `json:"code_pos"`
	// RNG and RandRNG are the raw generator states (not seeds).
	RNG        uint64      `json:"rng"`
	RandRNG    uint64      `json:"rand_rng"`
	Streams    []StreamPos `json:"streams"`
	BranchCtrs []uint32    `json:"branch_ctrs"`
}

// Position captures the program's current positional state. The result
// shares no storage with the program and stays valid as the program
// advances.
func (pr *Program) Position() Position {
	p := Position{
		InstrIdx:   pr.instrIdx,
		MemIdx:     pr.memIdx,
		CodePos:    pr.codePos,
		RNG:        pr.rng.State(),
		RandRNG:    pr.randRng.State(),
		Streams:    make([]StreamPos, len(pr.streams)),
		BranchCtrs: make([]uint32, len(pr.branchSlots)),
	}
	for i := range pr.streams {
		st := &pr.streams[i]
		p.Streams[i] = StreamPos{Pos: st.pos, LastOff: st.lastOff, BurstLeft: st.burstLeft}
	}
	for i := range pr.branchSlots {
		p.BranchCtrs[i] = pr.branchSlots[i].ctr
	}
	return p
}

// Seek restores a position previously captured (from this program or any
// program built from the same profile and scale). The subsequent stream is
// bit-identical to the one the capturing program would have produced: the
// phase-gated selection tables are deterministic functions of the
// instruction index, so rebuilding them at seek time reproduces exactly
// the state a straight replay would carry. Seek replaces "Reset then Skip
// to offset" — O(streams) instead of O(instructions). Positions whose
// stream state no program can reach (a cursor or last offset outside the
// stream, a burst count at or past its length) are rejected, and the
// program is left unchanged.
func (pr *Program) Seek(p Position) error {
	if len(p.Streams) != len(pr.streams) {
		return fmt.Errorf("workload: seek: position has %d streams, program %q has %d",
			len(p.Streams), pr.prof.Name, len(pr.streams))
	}
	if len(p.BranchCtrs) != len(pr.branchSlots) {
		return fmt.Errorf("workload: seek: position has %d branch counters, program %q has %d",
			len(p.BranchCtrs), pr.prof.Name, len(pr.branchSlots))
	}
	for i, sp := range p.Streams {
		st := &pr.streams[i]
		if sp.Pos >= st.lines || sp.LastOff >= st.lines || sp.BurstLeft >= st.burstLen {
			return fmt.Errorf("workload: seek: stream %d state (pos %d, last_off %d, burst_left %d) out of range for %d lines, burst %d",
				i, sp.Pos, sp.LastOff, sp.BurstLeft, st.lines, st.burstLen)
		}
	}
	pr.rng.SetState(p.RNG)
	pr.randRng.SetState(p.RandRNG)
	pr.instrIdx = p.InstrIdx
	pr.memIdx = p.MemIdx
	pr.codePos = p.CodePos
	for i := range pr.streams {
		st := &pr.streams[i]
		st.pos = p.Streams[i].Pos
		st.lastOff = p.Streams[i].LastOff
		st.burstLeft = p.Streams[i].BurstLeft
	}
	for i := range pr.branchSlots {
		pr.branchSlots[i].ctr = p.BranchCtrs[i]
	}
	pr.rebuildWeights()
	return nil
}
