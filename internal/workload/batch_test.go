package workload

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
)

func mulHi(a, b uint64) uint64 {
	h, _ := bits.Mul64(a, b)
	return h
}

// batchProfiles spans the generator's feature space: plain streaming,
// phase gating (calculix), overlays/spread (povray), random + chase mixes.
func batchProfiles() []*Profile {
	return []*Profile{GemsFDTD(), Calculix(), Povray(), Mcf(), Perlbench()}
}

// TestFillBatchMatchesNext pins the batched generator to the
// access-at-a-time one: identical access records and identical subsequent
// state, across chunk boundaries and phase edges.
func TestFillBatchMatchesNext(t *testing.T) {
	const span = 300_000
	for _, prof := range batchProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ref := prof.NewProgram(64)
			bat := prof.NewProgram(64)

			var want mem.Batch
			var ins Instr
			for i := 0; i < span; i++ {
				memIdx := ref.MemIndex()
				instrIdx := ref.InstrIndex()
				ref.Next(&ins)
				if ins.Kind == KindLoad || ins.Kind == KindStore {
					want.Add(mem.Access{PC: ins.PC, Addr: ins.Addr,
						Write: ins.Kind == KindStore, MemIdx: memIdx, InstrIdx: instrIdx})
				}
			}

			var got mem.Batch
			// Uneven chunk sizes so boundaries land everywhere, including
			// mid-burst and on phase edges.
			for done, chunk := uint64(0), uint64(1); done < span; chunk = chunk*7%8191 + 1 {
				n := chunk
				if done+n > span {
					n = span - done
				}
				bat.FillBatch(n, &got)
				done += n
			}

			if len(got) != len(want) {
				t.Fatalf("batched path yielded %d accesses, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d differs: batched %+v, want %+v", i, got[i], want[i])
				}
			}
			if bat.InstrIndex() != ref.InstrIndex() || bat.MemIndex() != ref.MemIndex() {
				t.Fatalf("state diverged: batched (%d,%d), ref (%d,%d)",
					bat.InstrIndex(), bat.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
			// The continuations must agree too.
			for i := 0; i < 10_000; i++ {
				var a, b Instr
				ref.Next(&a)
				bat.Next(&b)
				if a != b {
					t.Fatalf("continuation instruction %d differs: %+v vs %+v", i, b, a)
				}
			}
		})
	}
}

// TestFillInstrBatchMatchesNext pins the instruction-batch decoder to the
// access-at-a-time generator: identical instruction records and identical
// subsequent state, across chunk boundaries and phase edges.
func TestFillInstrBatchMatchesNext(t *testing.T) {
	const span = 300_000
	for _, prof := range batchProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			ref := prof.NewProgram(64)
			bat := prof.NewProgram(64)

			want := make([]Instr, span)
			for i := range want {
				ref.Next(&want[i])
			}

			var got InstrBatch
			// Uneven chunk sizes so boundaries land everywhere, including
			// mid-burst and on phase edges.
			for done, chunk := uint64(0), uint64(1); done < span; chunk = chunk*7%8191 + 1 {
				n := chunk
				if done+n > span {
					n = span - done
				}
				bat.FillInstrBatch(n, &got)
				done += n
			}

			if len(got) != len(want) {
				t.Fatalf("batched path yielded %d instructions, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("instruction %d differs: batched %+v, want %+v", i, got[i], want[i])
				}
			}
			if bat.InstrIndex() != ref.InstrIndex() || bat.MemIndex() != ref.MemIndex() {
				t.Fatalf("state diverged: batched (%d,%d), ref (%d,%d)",
					bat.InstrIndex(), bat.MemIndex(), ref.InstrIndex(), ref.MemIndex())
			}
			// The continuations must agree too.
			for i := 0; i < 10_000; i++ {
				var a, b Instr
				ref.Next(&a)
				bat.Next(&b)
				if a != b {
					t.Fatalf("continuation instruction %d differs: %+v vs %+v", i, b, a)
				}
			}
		})
	}
}

// TestFillInstrBatchSteadyStateAllocs: a sized instruction batch refilled
// by a phase-free program allocates nothing.
func TestFillInstrBatchSteadyStateAllocs(t *testing.T) {
	prog := GemsFDTD().NewProgram(64)
	var batch InstrBatch
	prog.FillInstrBatch(4096, &batch) // size the batch
	allocs := testing.AllocsPerRun(20, func() {
		batch.Reset()
		prog.FillInstrBatch(4096, &batch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FillInstrBatch allocated %.2f times per window", allocs)
	}
}

// TestDepModMatchesModulo pins the dependence-distance fastmod against the
// % operator over the full numerator range (12 bits of the instruction
// draw) for every ILP-derived span in the benchmark suite.
func TestDepModMatchesModulo(t *testing.T) {
	spans := map[uint32]struct{}{1: {}, 2: {}, 3: {}}
	for _, p := range Benchmarks() {
		pr := p.NewProgram(64)
		spans[pr.depSpan] = struct{}{}
	}
	for span := range spans {
		pr := &Program{depSpan: span, depMagic: ^uint64(0)/uint64(span) + 1}
		for x := uint32(0); x < 1<<12; x++ {
			if got, want := pr.depMod(x), uint16(x%span); got != want {
				t.Fatalf("depMod(%d) with span %d = %d, want %d", x, span, got, want)
			}
		}
	}
}

// TestFastmodMatchesModulo pins genMem's Lemire fastmod against the %
// operator over the full 16-bit numerator range for every PC count in use.
func TestFastmodMatchesModulo(t *testing.T) {
	counts := map[uint64]struct{}{1: {}, 2: {}, 3: {}, 5: {}, 7: {}, 64: {}, 65535: {}}
	for _, p := range batchProfiles() {
		for _, s := range p.Streams {
			if s.PCs > 0 {
				counts[uint64(s.PCs)] = struct{}{}
			}
		}
	}
	for n := range counts {
		magic := ^uint64(0)/n + 1
		for x := uint64(0); x < 1<<16; x++ {
			if got := mulHi(magic*x, n); got != x%n {
				t.Fatalf("fastmod(%d, %d) = %d, want %d", x, n, got, x%n)
			}
		}
	}
}

// TestFillBatchSteadyStateAllocs: a sized batch refilled by a phase-free
// program allocates nothing.
func TestFillBatchSteadyStateAllocs(t *testing.T) {
	prog := GemsFDTD().NewProgram(64)
	batch := make(mem.Batch, 0, 4096)
	prog.FillBatch(4096, &batch) // size the batch
	allocs := testing.AllocsPerRun(20, func() {
		batch.Reset()
		prog.FillBatch(4096, &batch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state FillBatch allocated %.2f times per window", allocs)
	}
}

// fillSize maps one fuzz byte to a decode-call length, favouring the
// lengths around chunk boundaries: 0, 1, ChunkLen-1, ChunkLen, ChunkLen+1
// and a multi-chunk span that is not a multiple of ChunkLen.
func fillSize(b byte) uint64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return ChunkLen - 1
	case 3:
		return ChunkLen
	case 4:
		return ChunkLen + 1
	case 5:
		return 2*ChunkLen + 7
	}
	return uint64(b) * 13
}

// FuzzFillMatchesNext pins the production decode loops to the
// per-instruction reference over validated profiles: a suite profile
// (calculix and povray bring phase gating) with a fuzzed instruction mix
// and loop duty, at a fuzzed scale (large scales put phase edges inside
// chunks), driven by a fuzzed sequence of FillBatch, FillInstrBatch and
// Skip calls of fuzzed lengths. Every record must match Next's, appended
// after what the batch already held, and the Position must match after
// every call. The seed corpus is checked in under testdata/fuzz.
func FuzzFillMatchesNext(f *testing.F) {
	f.Fuzz(func(t *testing.T, profSel, scaleLog uint8, memRatio, branchRatio, randBranch uint16, loopDuty uint8, calls []byte) {
		profs := Benchmarks()
		prof := profs[int(profSel)%len(profs)]
		prof.MemRatio = float64(memRatio) / 65535
		prof.BranchRatio = float64(branchRatio) / 65535
		prof.RandomBranchFrac = float64(randBranch) / 65535
		prof.LoopDuty = int(loopDuty)
		if prof.Validate() != nil {
			return
		}
		scale := uint64(1) << (scaleLog % 24)
		ref, got := prof.NewProgram(scale), prof.NewProgram(scale)
		// Both batches start non-empty: every call must append.
		wantAcc := mem.Batch{{PC: 1}}
		gotAcc := slices.Clone(wantAcc)
		wantIns := InstrBatch{{PC: 2}}
		gotIns := slices.Clone(wantIns)
		calls = calls[:min(len(calls), 128)]
		for c := 0; c+1 < len(calls); c += 2 {
			n := fillSize(calls[c+1])
			op := calls[c] % 3
			for i := uint64(0); i < n; i++ {
				memIdx, instrIdx := ref.MemIndex(), ref.InstrIndex()
				var ins Instr
				ref.Next(&ins)
				switch {
				case op == 0 && ins.IsMem():
					wantAcc = append(wantAcc, ins.Access(memIdx, instrIdx))
				case op == 1:
					wantIns = append(wantIns, ins)
				}
			}
			switch op {
			case 0:
				got.FillBatch(n, &gotAcc)
			case 1:
				got.FillInstrBatch(n, &gotIns)
			case 2:
				got.Skip(n)
			}
			if !reflect.DeepEqual(got.Position(), ref.Position()) {
				t.Fatalf("call %d (op %d, n %d): position %+v, reference %+v", c/2, op, n, got.Position(), ref.Position())
			}
		}
		if i := mismatch(gotAcc, wantAcc); i >= 0 {
			t.Fatalf("FillBatch: %d records, reference %d; first difference at %d", len(gotAcc), len(wantAcc), i)
		}
		if i := mismatch(gotIns, wantIns); i >= 0 {
			t.Fatalf("FillInstrBatch: %d records, reference %d; first difference at %d", len(gotIns), len(wantIns), i)
		}
	})
}

// mismatch returns the index of the first record where got and want
// differ (len(want) if got is longer), or -1 when they are equal.
func mismatch[S ~[]E, E comparable](got, want S) int {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}
