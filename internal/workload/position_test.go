package workload

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// TestSeekMatchesStraightReplay is the position API's bit-exactness
// oracle: for every profile in the suite, capturing a Position mid-stream
// and seeking a *fresh* program to it must continue the instruction
// stream bit-identically to the program that never stopped. The offsets
// straddle phase-gating edges (calculix's paired bursts, povray's duty
// cycle) so the rebuilt selection tables are exercised, not just the raw
// counters.
func TestSeekMatchesStraightReplay(t *testing.T) {
	const scale = 64
	offsets := []uint64{0, 1, 977, 40_000, 123_457}
	for _, prof := range Benchmarks() {
		straight := prof.NewProgram(scale)
		var captured []Position
		cursor := uint64(0)
		for _, off := range offsets {
			straight.Skip(off - cursor)
			cursor = off
			captured = append(captured, straight.Position())
		}
		for i, off := range offsets {
			forked := prof.NewProgram(scale)
			if err := forked.Seek(captured[i]); err != nil {
				t.Fatalf("%s@%d: seek: %v", prof.Name, off, err)
			}
			ref := prof.NewProgram(scale)
			ref.Skip(off)
			var a, b Instr
			for n := 0; n < 4096; n++ {
				ref.Next(&a)
				forked.Next(&b)
				if a != b {
					t.Fatalf("%s: instr %d after seek to %d diverged:\n got  %+v\n want %+v",
						prof.Name, n, off, b, a)
				}
			}
			if ref.InstrIndex() != forked.InstrIndex() || ref.MemIndex() != forked.MemIndex() {
				t.Fatalf("%s@%d: indices diverged: (%d,%d) vs (%d,%d)", prof.Name, off,
					forked.InstrIndex(), forked.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
		}
	}
}

// TestPositionJSONRoundTrip: a Position survives JSON encode→decode with
// full equality — the property the checkpoint layer's encoding relies on.
func TestPositionJSONRoundTrip(t *testing.T) {
	pr := Mcf().NewProgram(64)
	pr.Skip(50_000)
	pos := pr.Position()
	b, err := json.Marshal(pos)
	if err != nil {
		t.Fatal(err)
	}
	var back Position
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	fresh := Mcf().NewProgram(64)
	if err := fresh.Seek(back); err != nil {
		t.Fatal(err)
	}
	var a, bb Instr
	for n := 0; n < 1000; n++ {
		pr.Next(&a)
		fresh.Next(&bb)
		if a != bb {
			t.Fatalf("instr %d diverged after JSON round-trip", n)
		}
	}
}

// TestSeekRejectsMismatchedShape: positions from a different profile shape
// fail loudly instead of silently corrupting the stream.
func TestSeekRejectsMismatchedShape(t *testing.T) {
	pos := Mcf().NewProgram(64).Position()
	pos.Streams = pos.Streams[:1]
	if err := Lbm().NewProgram(64).Seek(pos); err == nil {
		t.Fatal("seek accepted a position with the wrong stream count")
	}
	pos2 := Mcf().NewProgram(64).Position()
	pos2.BranchCtrs = nil
	if err := Mcf().NewProgram(64).Seek(pos2); err == nil {
		t.Fatal("seek accepted a position with the wrong branch-counter count")
	}
}

// TestSeekRejectsOutOfRangeStreamState pins Seek's range checks at their
// boundaries: the last in-range value of each stream field is accepted,
// the first out-of-range one rejected.
func TestSeekRejectsOutOfRangeStreamState(t *testing.T) {
	pr := Perlbench().NewProgram(64)
	st := pr.streams[1]
	cases := []struct {
		name string
		sp   StreamPos
		ok   bool
	}{
		{"in range", StreamPos{Pos: st.lines - 1, LastOff: st.lines - 1, BurstLeft: st.burstLen - 1}, true},
		{"pos", StreamPos{Pos: st.lines}, false},
		{"last_off", StreamPos{LastOff: st.lines}, false},
		{"burst_left", StreamPos{BurstLeft: st.burstLen}, false},
	}
	for _, c := range cases {
		pos := pr.Position()
		pos.Streams[1] = c.sp
		if err := Perlbench().NewProgram(64).Seek(pos); (err == nil) != c.ok {
			t.Errorf("%s: Seek error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzProgramSeek: Seek restores any in-range position and rejects every
// out-of-range stream state, leaving the program untouched. A restored
// program reports back exactly the position it was given, and the stream
// it then generates stays inside its arenas.
func FuzzProgramSeek(f *testing.F) {
	f.Add(uint8(4), uint16(977), uint8(1), uint64(3), uint64(3), uint32(0), uint64(977))
	f.Add(uint8(13), uint16(0), uint8(0), uint64(1<<40), uint64(0), uint32(0), uint64(0))
	f.Add(uint8(0), uint16(40000), uint8(2), uint64(0), uint64(0), uint32(1<<31), ^uint64(0))
	f.Fuzz(func(t *testing.T, profSel uint8, skip uint16, stream uint8, pos, lastOff uint64, burstLeft uint32, instrIdx uint64) {
		profs := Benchmarks()
		prof := profs[int(profSel)%len(profs)]
		src := prof.NewProgram(64)
		src.Skip(uint64(skip))
		p := src.Position()
		p.InstrIdx = instrIdx
		si := int(stream) % len(p.Streams)
		p.Streams[si] = StreamPos{Pos: pos, LastOff: lastOff, BurstLeft: burstLeft}

		pr := prof.NewProgram(64)
		before := pr.Position()
		st := pr.streams[si]
		inRange := pos < st.lines && lastOff < st.lines && burstLeft < st.burstLen
		err := pr.Seek(p)
		if err != nil {
			if inRange {
				t.Fatalf("rejected an in-range position: %v", err)
			}
			if !reflect.DeepEqual(pr.Position(), before) {
				t.Fatal("a rejected seek changed the program")
			}
			return
		}
		if !inRange {
			t.Fatalf("accepted stream %d state %+v (lines %d, burst %d)", si, p.Streams[si], st.lines, st.burstLen)
		}
		if !reflect.DeepEqual(pr.Position(), p) {
			t.Fatal("Position after Seek differs from the position sought")
		}
		var ins Instr
		for n := 0; n < 1024; n++ {
			pr.Next(&ins)
			if ins.Kind != KindLoad && ins.Kind != KindStore {
				continue
			}
			line := uint64(mem.LineOf(ins.Addr))
			in := false
			for _, s := range pr.streams {
				in = in || line >= s.baseLine && line < s.baseLine+s.lines*s.spread
			}
			if !in {
				t.Fatalf("instr %d after seek: address %#x outside every arena", n, ins.Addr)
			}
		}
	})
}
