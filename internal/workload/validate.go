package workload

import (
	"fmt"
	"math"
)

// Validate reports the first field of p that no program can be built and
// run from, naming it. Inline profiles reach the generator from outside
// the suite (labd specs), so the spec boundary calls this before a job is
// accepted. Passing it is also the precondition of FillBatch's sign-bit
// kind picks: every instruction-kind threshold stays at most 2^16.
func (p *Profile) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MemRatio", p.MemRatio}, {"BranchRatio", p.BranchRatio},
		{"FPFrac", p.FPFrac}, {"RandomBranchFrac", p.RandomBranchFrac},
	} {
		if !unit(f.v) {
			return fmt.Errorf("%s = %g, must be in [0, 1]", f.name, f.v)
		}
	}
	if p.MemRatio+p.BranchRatio > 1 {
		return fmt.Errorf("MemRatio + BranchRatio = %g, must be at most 1", p.MemRatio+p.BranchRatio)
	}
	if p.MemRatio > 0 {
		if len(p.Streams) == 0 {
			return fmt.Errorf("Streams is empty but MemRatio = %g needs at least one stream", p.MemRatio)
		}
		var total float64
		for i, s := range p.Streams {
			if !(s.Weight >= 0) || math.IsInf(s.Weight, 1) {
				return fmt.Errorf("Streams[%d].Weight = %g, must be finite and non-negative", i, s.Weight)
			}
			total += s.Weight
		}
		if !(total > 0) || math.IsInf(total, 1) {
			return fmt.Errorf("Streams[*].Weight sums to %g, must be positive and finite", total)
		}
	}
	for i, s := range p.Streams {
		if !unit(s.WriteFrac) {
			return fmt.Errorf("Streams[%d].WriteFrac = %g, must be in [0, 1]", i, s.WriteFrac)
		}
		if s.OverlayOf < 0 || s.OverlayOf > i {
			return fmt.Errorf("Streams[%d].OverlayOf = %d, must be 0 or name an earlier stream (1..%d)", i, s.OverlayOf, i)
		}
		if s.PhasePeriod == 0 {
			continue
		}
		if !(s.PhaseDuty > 0 && s.PhaseDuty <= 1) {
			return fmt.Errorf("Streams[%d].PhaseDuty = %g, must be in (0, 1]", i, s.PhaseDuty)
		}
		for j, o := range s.PhaseOffsets {
			if !(o >= 0 && o < 1) {
				return fmt.Errorf("Streams[%d].PhaseOffsets[%d] = %g, must be in [0, 1)", i, j, o)
			}
		}
	}
	return nil
}

// unit reports whether v is in [0, 1] (NaN is not).
func unit(v float64) bool { return v >= 0 && v <= 1 }
