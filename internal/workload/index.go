package workload

import (
	"fmt"
	"sort"
	"sync"
)

// Index records Positions along one deterministic stream — one profile at
// one scale — so that a program can reach a far instruction by seeking to
// the nearest recorded position and walking only the remainder. Every pass
// of a time-traveling run replays the same stream, so the first pass to
// walk a span pays for it and every later pass seeks across it (the
// live-points idea applied to the stream generator; DESIGN.md §15).
//
// Positions are recorded on a grid of every stride instructions plus at
// each landing point. Memory is bounded independent of the span walked:
// when the index holds indexCap entries the grid coarsens by doubling the
// stride and the entries off the new grid are dropped. An Index is safe
// for concurrent use by any number of programs of its profile and scale.
type Index struct {
	prof  *Profile
	scale uint64

	mu      sync.Mutex
	stride  uint64     // grid spacing, a power of two
	entries []Position // ascending by InstrIdx, no duplicates
}

const (
	// indexCap bounds the recorded entries (~250 B each).
	indexCap = 1024
	// indexStartStride is the initial grid spacing. The index coarsens
	// from it only once a run has walked indexCap*indexStartStride
	// instructions.
	indexStartStride = 1 << 12
)

// NewIndex returns an empty index for programs of prof at scale.
func NewIndex(prof *Profile, scale uint64) *Index {
	if scale == 0 {
		scale = 1 // as NewProgram
	}
	return &Index{prof: prof, scale: scale, stride: indexStartStride}
}

// SkipTo advances pr to instruction to, leaving it in exactly the state
// pr.Skip(to - pr.InstrIndex()) would: it seeks to the nearest recorded
// position at or before to when that is ahead of pr, walks the rest, and
// records the grid points it crosses and the landing point. It panics if
// pr is past to or was built from a different profile or scale.
func (x *Index) SkipTo(pr *Program, to uint64) {
	if pr.prof != x.prof || pr.scale != x.scale {
		panic(fmt.Sprintf("workload: index for %s/%d used with %s/%d",
			x.prof.Name, x.scale, pr.prof.Name, pr.scale))
	}
	if pr.instrIdx > to {
		panic("workload: SkipTo target is in the past")
	}
	if p, ok := x.nearest(pr.instrIdx, to); ok {
		if err := pr.Seek(p); err != nil {
			panic(err) // recorded from a program of the same shape
		}
	}
	for {
		x.mu.Lock()
		stride := x.stride
		x.mu.Unlock()
		next := (pr.instrIdx/stride + 1) * stride
		if next > to {
			break
		}
		pr.Skip(next - pr.instrIdx)
		x.record(pr)
	}
	pr.Skip(to - pr.instrIdx)
	x.record(pr)
}

// nearest returns the last recorded position at or before to, if it lies
// after cur.
func (x *Index) nearest(cur, to uint64) (Position, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.entries), func(i int) bool { return x.entries[i].InstrIdx > to }) - 1
	if i < 0 || x.entries[i].InstrIdx <= cur {
		return Position{}, false
	}
	// Recorded positions are never mutated, so the copy may share their
	// slices with the index.
	return x.entries[i], true
}

// record adds pr's current position unless it is already recorded.
func (x *Index) record(pr *Program) {
	at := pr.instrIdx
	if at == 0 {
		return // every program starts there
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	i := sort.Search(len(x.entries), func(i int) bool { return x.entries[i].InstrIdx >= at })
	if i < len(x.entries) && x.entries[i].InstrIdx == at {
		return
	}
	x.entries = append(x.entries, Position{})
	copy(x.entries[i+1:], x.entries[i:])
	x.entries[i] = pr.Position()
	for len(x.entries) >= indexCap {
		x.coarsen()
	}
}

// coarsen doubles the grid stride and drops every entry off the new grid,
// landing points included.
func (x *Index) coarsen() {
	x.stride *= 2
	kept := x.entries[:0]
	for _, p := range x.entries {
		if p.InstrIdx%x.stride == 0 {
			kept = append(kept, p)
		}
	}
	clear(x.entries[len(kept):]) // release the dropped positions' slices
	x.entries = kept
}
