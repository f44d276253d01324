package warm

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workload"
)

// warmPerRecord is the reference WarmChunk is pinned against: one
// WarmInstr per instruction, then WarmData for a load or store or, when a
// predictor is given, PredictAndUpdate for a branch.
func warmPerRecord(h *cache.Hierarchy, bp *cpu.BranchPred, chunk workload.InstrBatch) {
	for i := range chunk {
		ins := &chunk[i]
		h.WarmInstr(ins.FetchLine)
		switch {
		case ins.IsMem():
			h.WarmData(mem.LineOf(ins.Addr))
		case ins.Kind == workload.KindBranch && bp != nil:
			bp.PredictAndUpdate(ins.PC, ins.Taken)
		}
	}
}

// TestWarmChunkMatchesPerRecord: the warming kernel leaves the hierarchy
// (tags, ages, ticks, counters) and the predictor deep-equal to the
// per-record reference, on a private hierarchy and on the second core of
// a shared LLC (ASLBase != 0), with and without a predictor, for chunks
// of 1, 7 and ChunkLen instructions. Timing-core quanta (RunBatch, which
// replays fetches through the same L1I and its own fetch-line memo) run
// between kernel calls, so a memo that outlived its call would replay a
// stale way and diverge.
func TestWarmChunkMatchesPerRecord(t *testing.T) {
	// At 1/16 scale the L1I holds 64 lines and both programs' code walks
	// are longer, so the quanta evict lines the kernel fetched.
	const scale = 16
	hcfg := cache.DefaultHierarchy(1<<20, scale)
	type rig struct {
		hiers []*cache.Hierarchy // hiers[len-1] is the one warmed
		bp    *cpu.BranchPred
		cores []*cpu.Core
		progs []*workload.Program
	}
	mk := func(shared, withBP bool) *rig {
		r := &rig{}
		if shared {
			r.hiers = cache.NewSharedHierarchy(hcfg, 2)
		} else {
			r.hiers = []*cache.Hierarchy{cache.NewHierarchy(hcfg, nil)}
		}
		if withBP {
			r.bp = cpu.NewBranchPred(cpu.DefaultBPConfig())
		}
		profs := []*workload.Profile{workload.Xalancbmk()}
		if shared {
			profs = []*workload.Profile{workload.Omnetpp(), workload.Xalancbmk()}
		}
		for i, h := range r.hiers {
			r.cores = append(r.cores, cpu.NewCore(cpu.DefaultConfig(), h, nil))
			r.progs = append(r.progs, profs[i].NewProgram(scale))
		}
		return r
	}
	for _, shared := range []bool{false, true} {
		for _, withBP := range []bool{true, false} {
			for _, chunkLen := range []uint64{1, 7, workload.ChunkLen} {
				t.Run(fmt.Sprintf("shared=%v/bp=%v/chunk=%d", shared, withBP, chunkLen), func(t *testing.T) {
					got, want := mk(shared, withBP), mk(shared, withBP)
					if w := got.hiers[len(got.hiers)-1]; shared && w.ASLBase == 0 {
						t.Fatal("the warmed core of a shared LLC has ASLBase 0")
					}
					prog := workload.Gobmk().NewProgram(scale)
					var chunk, scratch workload.InstrBatch
					for call := 0; call < 300; call++ {
						chunk.Reset()
						prog.FillInstrBatch(chunkLen, &chunk)
						WarmChunk(got.hiers[len(got.hiers)-1], got.bp, chunk)
						warmPerRecord(want.hiers[len(want.hiers)-1], want.bp, chunk)
						if call%3 == 2 {
							for _, r := range []*rig{got, want} {
								for i, c := range r.cores {
									c.RunBatch(r.progs[i], 37+uint64(call%5), &scratch)
								}
							}
						}
					}
					if !reflect.DeepEqual(got.hiers, want.hiers) {
						t.Error("hierarchy state diverges from the per-record reference")
					}
					if !reflect.DeepEqual(got.bp, want.bp) {
						t.Error("predictor state diverges from the per-record reference")
					}
				})
			}
		}
	}
}
