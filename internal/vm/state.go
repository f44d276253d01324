package vm

import (
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// WatchedPage is one watched page: its index and the 64-bit bitmap of its
// watched lines.
type WatchedPage struct {
	Page uint64 `json:"page"`
	Bits uint64 `json:"bits"`
}

// WatchpointsState is the serializable state of a Watchpoints set: the
// watched pages sorted by page index, which makes the encoding canonical —
// two sets with the same watched lines encode identically regardless of
// the order the watchpoints were armed in.
type WatchpointsState []WatchedPage

// State captures the watchpoint set.
func (w *Watchpoints) State() WatchpointsState {
	s := make(WatchpointsState, 0, w.pages.Len())
	w.pages.Range(func(p mem.Page, bm uint64) bool {
		s = append(s, WatchedPage{Page: uint64(p), Bits: bm})
		return true
	})
	slices.SortFunc(s, func(a, b WatchedPage) int {
		switch {
		case a.Page < b.Page:
			return -1
		case a.Page > b.Page:
			return 1
		}
		return 0
	})
	return s
}

// SetState replaces the set's contents with the captured state. The line
// count is recomputed from the bitmaps, so a hand-built state needs no
// separate count field to stay consistent.
func (w *Watchpoints) SetState(s WatchpointsState) {
	w.pages.Reset()
	w.n = 0
	for _, wp := range s {
		if wp.Bits == 0 {
			continue
		}
		p, _ := w.pages.Upsert(mem.Page(wp.Page))
		*p = wp.Bits
		w.n += bits.OnesCount64(wp.Bits)
	}
}
