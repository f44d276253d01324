package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/runner"
)

// Span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the repetition started; Parent is 0 for a root span.
// Spans of one repetition share Run.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Kind, Bench and Extra carry a runner job's spec identity; Tier says
	// where its result came from (execute, memory or store).
	Kind  string `json:"kind,omitempty"`
	Bench string `json:"bench,omitempty"`
	Extra string `json:"extra,omitempty"`
	Tier  string `json:"tier,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer records spans in memory; they leave the process only when the
// repetition reports. A nil *Tracer records nothing, which is how the
// untraced runs call the same code.
type Tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// newTracer starts a tracer for one repetition of the workload; the
// process id tells the repetitions of a run apart.
func newTracer(workload string) *Tracer {
	return &Tracer{run: fmt.Sprintf("%s/%d", workload, os.Getpid()), t0: time.Now()}
}

// add records a finished span.
func (t *Tracer) add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Run = len(t.spans)+1, t.run
	t.spans = append(t.spans, s)
}

// since converts a wall-clock instant to the tracer's time base.
func (t *Tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.t0).Nanoseconds()
}

// timed runs fn and records it as a span named name under parent.
func (t *Tracer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(Span{Parent: parent, Name: name, Start: t.since(start), End: t.since(end)})
	return end.Sub(start)
}

// reserve allocates a span id before the span's children are recorded;
// finish fills it in once the span ends.
func (t *Tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{})
	return len(t.spans)
}

func (t *Tracer) finish(id int, s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Run = id, t.run
	t.spans[id-1] = s
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child's time outside the parent is ignored).
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.Dur() - time.Duration(covered)
	}
	return out
}

// jobRecorder turns the runner's OnProgress stream into spans. The stream
// reports each job's end and elapsed time but not its caller, so the
// parent of a nested lookup is inferred from the spec kinds that nest
// (nestedKinds) and the interval that contains it; see linkNested.
type jobRecorder struct {
	tr *Tracer
	mu sync.Mutex
	ev []Span
}

func (r *jobRecorder) onProgress(p runner.Progress) {
	end := time.Now()
	tier := "execute"
	switch {
	case p.FromStore:
		tier = "store"
	case p.Cached:
		tier = "memory"
	}
	s := Span{Name: jobLabel(p.Kind, p.Method), Kind: p.Kind, Bench: p.Bench, Extra: p.Extra, Tier: tier,
		Start: r.tr.since(end.Add(-p.Elapsed)), End: r.tr.since(end)}
	r.mu.Lock()
	r.ev = append(r.ev, s)
	r.mu.Unlock()
}

// flush links the recorded job spans and adds them to the tracer.
func (r *jobRecorder) flush() {
	r.mu.Lock()
	ev := r.ev
	r.ev = nil
	r.mu.Unlock()
	parents := linkNested(ev)
	ids := make([]int, len(ev))
	for i := range ev {
		ids[i] = r.tr.reserve()
	}
	for i, s := range ev {
		if p := parents[i]; p >= 0 {
			s.Parent = ids[p]
		}
		r.tr.finish(ids[i], s)
	}
}

// jobLabel names a runner job span: the method for the co-run kinds
// (corun-profile, corun-cal, corun-warm, corun-sim), kind.method otherwise.
func jobLabel(kind, method string) string {
	if kind == "sampling" {
		return "sampling." + method
	}
	return method
}

// nestedKinds maps a spec kind to the kind its executor runs as a nested
// spec of the same bench (a co-run calibration nests its app's profile, a
// co-run cell nests its mix's warm checkpoint).
var nestedKinds = map[string]string{
	"corun-calibrate": "corun-profile",
	"corun-sim":       "corun-warm",
}

// slack absorbs the gap between a job's end and the serialized progress
// callback that timestamps it.
const slack = int64(2 * time.Millisecond)

// linkNested returns, per job span, the index of the span that ran it as a
// nested spec, or -1 for a top-level job. A parent must be of the kind that
// nests the child's kind, name the same bench (and LLC size, for the warm
// checkpoint) and contain the child's interval; of several candidates the
// shortest wins.
func linkNested(ev []Span) []int {
	out := make([]int, len(ev))
	for i, c := range ev {
		out[i] = -1
		for j, p := range ev {
			if i == j || nestedKinds[p.Kind] != c.Kind || p.Bench != c.Bench {
				continue
			}
			if c.Kind == "corun-warm" && p.Extra != c.Extra {
				continue
			}
			if c.Start+slack < p.Start || c.End > p.End+slack {
				continue
			}
			if k := out[i]; k < 0 || ev[j].Dur() < ev[k].Dur() {
				out[i] = j
			}
		}
	}
	return out
}

// selfByName sums the self time of executed spans per span name.
func selfByName(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Tier == "" || s.Tier == "execute" {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}
