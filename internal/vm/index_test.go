package vm

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestSharedIndexMatchesStraightSkip: engines sharing one position index
// fast-forward concurrently to random ascending targets. Every landing
// must match a straight Skip in Position, and every engine's VFF ledger
// must equal the span it covered. The span is long enough for the index
// to coarsen while the engines use it.
func TestSharedIndexMatchesStraightSkip(t *testing.T) {
	const (
		scale   = 64
		engines = 4
		hops    = 12
	)
	span := uint64(6_000_000)
	if testing.Short() {
		span = 1_500_000
	}
	prof := workload.Mcf()
	rng := stats.NewRNG(7)
	targets := make([][]uint64, engines)
	var all []uint64
	for e := range targets {
		for h := 0; h < hops; h++ {
			targets[e] = append(targets[e], rng.Uint64n(span))
		}
		slices.Sort(targets[e])
		all = append(all, targets[e]...)
	}
	slices.Sort(all)
	want := map[uint64]workload.Position{}
	ref := prof.NewProgram(scale)
	for _, to := range all {
		ref.Skip(to - ref.InstrIndex())
		want[to] = ref.Position()
	}

	idx := workload.NewIndex(prof, scale)
	var wg sync.WaitGroup
	for e := range targets {
		wg.Add(1)
		go func(tos []uint64) {
			defer wg.Done()
			eng := NewEngine(prof.NewProgram(scale))
			eng.Index = idx
			for _, to := range tos {
				eng.FastForwardTo(to)
				if !reflect.DeepEqual(eng.Prog.Position(), want[to]) {
					t.Errorf("fast-forward to %d landed off the straight stream", to)
					return
				}
			}
			if got, last := eng.Counters.Get("win/"+KindVFF), tos[len(tos)-1]; got != float64(last) {
				t.Errorf("VFF ledger %v, want %d", got, last)
			}
		}(targets[e])
	}
	wg.Wait()
}
