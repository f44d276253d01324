package workload

import (
	"reflect"
	"testing"
)

// TestIndexMemoryBound: walking a span far longer than the index's
// capacity times its initial stride, with a landing every ~100k
// instructions, keeps the entry count under the fixed capacity, and the
// coarsened index still lands exactly.
func TestIndexMemoryBound(t *testing.T) {
	const scale = 4096
	prof := Lbm()
	x := NewIndex(prof, scale)
	span := uint64(2 * indexCap * indexStartStride)
	pr := prof.NewProgram(scale)
	for to := uint64(0); to < span; to += 100_003 {
		x.SkipTo(pr, to)
		if n := len(x.entries); n >= indexCap {
			t.Fatalf("index holds %d entries at instruction %d, capacity %d", n, to, indexCap)
		}
	}
	if x.stride <= indexStartStride {
		t.Fatalf("stride %d: the walk never coarsened the index", x.stride)
	}
	later := prof.NewProgram(scale)
	x.SkipTo(later, span-1)
	ref := prof.NewProgram(scale)
	ref.Skip(span - 1)
	if !reflect.DeepEqual(later.Position(), ref.Position()) {
		t.Fatal("seek through the coarsened index landed off the straight stream")
	}
}

// TestIndexRejectsForeignProgram: an index serves one profile at one
// scale; any other program is a programming error.
func TestIndexRejectsForeignProgram(t *testing.T) {
	x := NewIndex(Mcf(), 64)
	for _, pr := range []*Program{Mcf().NewProgram(128), Lbm().NewProgram(64)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SkipTo accepted a %s/%d program", pr.Name(), pr.Scale())
				}
			}()
			x.SkipTo(pr, 10)
		}()
	}
}
