package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
)

const testScale = 64

// TestDeterministicReplay is the property time traveling depends on: two
// instances of the same profile produce bit-identical streams, and Reset
// rewinds an instance to the identical stream.
func TestDeterministicReplay(t *testing.T) {
	for _, p := range []*Profile{Bwaves(), Mcf(), Calculix()} {
		a := p.NewProgram(testScale)
		b := p.NewProgram(testScale)
		var ia, ib Instr
		for i := 0; i < 200000; i++ {
			a.Next(&ia)
			b.Next(&ib)
			if ia != ib {
				t.Fatalf("%s: instance divergence at instr %d: %+v vs %+v", p.Name, i, ia, ib)
			}
		}
		if a.InstrIndex() != b.InstrIndex() || a.MemIndex() != b.MemIndex() {
			t.Fatalf("%s: index divergence", p.Name)
		}
		// Reset replays identically.
		first := make([]Instr, 1000)
		a.Reset()
		for i := range first {
			a.Next(&first[i])
		}
		a.Reset()
		for i := range first {
			a.Next(&ia)
			if ia != first[i] {
				t.Fatalf("%s: Reset replay diverged at %d", p.Name, i)
			}
		}
	}
}

// TestSkipEquivalence: Skip(n) must leave the program in exactly the state
// of n Next calls (fast-forwarding must not perturb the timeline).
func TestSkipEquivalence(t *testing.T) {
	p := Perlbench()
	a := p.NewProgram(testScale)
	b := p.NewProgram(testScale)
	var ia, ib Instr
	a.Skip(12345)
	for i := 0; i < 12345; i++ {
		b.Next(&ib)
	}
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("diverged at %d after Skip", i)
		}
	}
}

// TestInstructionMix checks the realized kind ratios against the profile.
func TestInstructionMix(t *testing.T) {
	for _, p := range Benchmarks() {
		pr := p.NewProgram(testScale)
		var ins Instr
		const n = 300000
		counts := map[InstrKind]int{}
		for i := 0; i < n; i++ {
			pr.Next(&ins)
			counts[ins.Kind]++
		}
		memFrac := float64(counts[KindLoad]+counts[KindStore]) / n
		brFrac := float64(counts[KindBranch]) / n
		if math.Abs(memFrac-p.MemRatio) > 0.02 {
			t.Errorf("%s: mem frac %.3f, want %.3f", p.Name, memFrac, p.MemRatio)
		}
		if math.Abs(brFrac-p.BranchRatio) > 0.02 {
			t.Errorf("%s: branch frac %.3f, want %.3f", p.Name, brFrac, p.BranchRatio)
		}
		if got := pr.MemIndex(); got != uint64(counts[KindLoad]+counts[KindStore]) {
			t.Errorf("%s: MemIndex %d != counted %d", p.Name, got, counts[KindLoad]+counts[KindStore])
		}
	}
}

// TestStreamArenasDisjoint: streams must not alias each other's lines, and
// all data must stay clear of the code arena.
func TestStreamArenasDisjoint(t *testing.T) {
	for _, p := range Benchmarks() {
		pr := p.NewProgram(testScale)
		type rng struct{ lo, hi uint64 }
		var arenas []rng
		for _, st := range pr.streams {
			if st.overlay {
				continue // overlays intentionally share a host arena
			}
			arenas = append(arenas, rng{st.baseLine, st.baseLine + st.lines*st.spread})
		}
		for i := range arenas {
			if arenas[i].hi > codeBaseLine {
				t.Errorf("%s: stream %d overlaps code arena", p.Name, i)
			}
			for j := i + 1; j < len(arenas); j++ {
				if arenas[i].lo < arenas[j].hi && arenas[j].lo < arenas[i].hi {
					t.Errorf("%s: streams %d and %d overlap", p.Name, i, j)
				}
			}
		}
	}
}

// TestAddressesInArena: every generated address must fall inside the arena
// of one of the profile's streams, and the program's position must stay
// seekable — including a Seq stream whose stride exceeds its length.
func TestAddressesInArena(t *testing.T) {
	longStride := &Profile{
		Name: "long-stride", MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 8, ILP: 4, CodeKiB: 4, Seed: 3,
		Streams: []StreamSpec{{Kind: Seq, Weight: 1, PaperBytes: 16 * mem.LineSize, StrideLines: 100}},
	}
	for _, p := range []*Profile{Zeusmp(), longStride} {
		pr := p.NewProgram(testScale)
		var ins Instr
		for i := 0; i < 100000; i++ {
			pr.Next(&ins)
			if ins.Kind != KindLoad && ins.Kind != KindStore {
				continue
			}
			line := uint64(mem.LineOf(ins.Addr))
			ok := false
			for _, st := range pr.streams {
				if line >= st.baseLine && line < st.baseLine+st.lines*st.spread {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: address %#x (line %d) outside all arenas", p.Name, ins.Addr, line)
			}
		}
		if err := p.NewProgram(testScale).Seek(pr.Position()); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

// TestChaseFullPeriod: the chase LCG must visit every line of its
// (power-of-two) arena exactly once per cycle.
func TestChaseFullPeriod(t *testing.T) {
	p := &Profile{
		Name: "chase-test", MemRatio: 1.0, LoopDuty: 4, ILP: 4,
		Streams: []StreamSpec{{Kind: Chase, Weight: 1, PaperBytes: 64 * 256 * testScale}},
		Seed:    7,
	}
	pr := p.NewProgram(testScale)
	lines := pr.streams[0].lines
	if lines&(lines-1) != 0 {
		t.Fatalf("chase arena not a power of two: %d", lines)
	}
	seen := make(map[mem.Line]int, lines)
	var ins Instr
	for i := uint64(0); i < lines; i++ {
		pr.Next(&ins)
		seen[ins.Line()]++
	}
	if uint64(len(seen)) != lines {
		t.Fatalf("chase visited %d unique lines in one period, want %d", len(seen), lines)
	}
	for l, c := range seen {
		if c != 1 {
			t.Fatalf("line %d visited %d times in one period", l, c)
		}
	}
}

func (i *Instr) Line() mem.Line { return mem.LineOf(i.Addr) }

// TestPhaseGating: a phased stream must only produce accesses during its
// burst windows.
func TestPhaseGating(t *testing.T) {
	const period = 1_000_000 * testScale
	p := &Profile{
		Name: "phase-test", MemRatio: 0.5, LoopDuty: 4, ILP: 4,
		Streams: []StreamSpec{
			{Kind: Rand, Weight: 0.9, PaperBytes: mib},
			{Kind: Rand, Weight: 0.1, PaperBytes: 64 * mib,
				PhasePeriod: period, PhaseDuty: 0.1, PhaseOffsets: []float64{0.5}},
		},
		Seed: 9,
	}
	pr := p.NewProgram(testScale)
	phStream := pr.streams[1]
	scaledPeriod := period / testScale
	var ins Instr
	inBurst, outBurst := 0, 0
	for i := 0; i < 3*scaledPeriod; i++ {
		idx := pr.InstrIndex()
		pr.Next(&ins)
		if ins.Kind != KindLoad && ins.Kind != KindStore {
			continue
		}
		line := uint64(mem.LineOf(ins.Addr))
		fromPhased := line >= phStream.baseLine && line < phStream.baseLine+phStream.lines
		pos := idx % uint64(scaledPeriod)
		active := pos >= uint64(0.5*float64(scaledPeriod)) && pos < uint64(0.6*float64(scaledPeriod))
		if fromPhased {
			if active {
				inBurst++
			} else {
				outBurst++
			}
		}
	}
	if outBurst > 0 {
		t.Errorf("phased stream produced %d accesses outside its burst", outBurst)
	}
	if inBurst == 0 {
		t.Error("phased stream never produced accesses during its burst")
	}
}

// TestBenchmarksWellFormed sanity-checks the whole suite.
func TestBenchmarksWellFormed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 24 {
		t.Fatalf("suite has %d benchmarks, want 24 (paper's SPEC CPU2006 subset)", len(bs))
	}
	seen := map[string]bool{}
	for _, p := range bs {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %q", p.Name)
		}
		seen[p.Name] = true
		var w float64
		for _, s := range p.Streams {
			w += s.Weight
		}
		if math.Abs(w-1) > 1e-9 {
			t.Errorf("%s: stream weights sum to %f, want 1", p.Name, w)
		}
		if p.MemRatio <= 0 || p.MemRatio+p.BranchRatio >= 1 {
			t.Errorf("%s: implausible instruction mix", p.Name)
		}
		if ByName(p.Name) == nil {
			t.Errorf("ByName(%q) = nil", p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if ByName("nonexistent") != nil {
		t.Error("ByName should return nil for unknown benchmarks")
	}
}

// TestProfileValidate: each value the generator cannot run is refused
// with an error naming its field, including the non-finite ones JSON
// cannot carry.
func TestProfileValidate(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(p *Profile)
	}{
		{"MemRatio", func(p *Profile) { p.MemRatio = math.NaN() }},
		{"BranchRatio", func(p *Profile) { p.BranchRatio = 1.01 }},
		{"BranchRatio", func(p *Profile) { p.MemRatio, p.BranchRatio = 0.6, 0.5 }},
		{"Streams", func(p *Profile) { p.Streams = nil }},
		{"Weight", func(p *Profile) { p.Streams[0].Weight = math.NaN() }},
		{"Weight", func(p *Profile) { p.Streams[0].Weight = math.Inf(1) }},
		{"Weight", func(p *Profile) { p.Streams[0].Weight, p.Streams[1].Weight = math.MaxFloat64, math.MaxFloat64 }},
		{"WriteFrac", func(p *Profile) { p.Streams[1].WriteFrac = -0.1 }},
		{"OverlayOf", func(p *Profile) { p.Streams[1].OverlayOf = -1 }},
		{"OverlayOf", func(p *Profile) { p.Streams[1].OverlayOf = 2 }},
		{"PhaseDuty", func(p *Profile) { p.Streams[2].PhaseDuty = 0 }},
		{"PhaseOffsets", func(p *Profile) { p.Streams[2].PhaseOffsets = []float64{-0.1} }},
	}
	for _, c := range cases {
		p := Calculix()
		c.mutate(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("want an error naming %s, got %v", c.field, err)
		}
	}
	// Streams only matter when there are memory instructions.
	p := Calculix()
	p.MemRatio, p.Streams = 0, nil
	if err := p.Validate(); err != nil {
		t.Errorf("MemRatio 0 without streams: %v", err)
	}
}

// TestOverlaySpreadBeyondHost: an overlay whose single spread step is
// wider than its host's arena still builds (one line) and runs; it used to
// divide by a zero line count.
func TestOverlaySpreadBeyondHost(t *testing.T) {
	p := &Profile{
		Name: "overlay-spread", MemRatio: 0.5, BranchRatio: 0.1, LoopDuty: 8, ILP: 4, Seed: 5,
		Streams: []StreamSpec{
			{Kind: Seq, Weight: 0.5, PaperBytes: 1024},
			{Kind: Seq, Weight: 0.5, PaperBytes: 64 * 1024, SpreadLines: 64, OverlayOf: 1},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var b mem.Batch
	p.NewProgram(1).FillBatch(1000, &b)
	if len(b) == 0 {
		t.Fatal("no accesses")
	}
}

// TestBranchPattern: loop branches must be not-taken once per LoopDuty.
func TestBranchPattern(t *testing.T) {
	p := &Profile{
		Name: "br-test", MemRatio: 0.1, BranchRatio: 0.5, LoopDuty: 8,
		RandomBranchFrac: 0, ILP: 4,
		Streams: []StreamSpec{{Kind: Rand, Weight: 1, PaperBytes: mib}},
		Seed:    11,
	}
	pr := p.NewProgram(testScale)
	var ins Instr
	taken, total := 0, 0
	for i := 0; i < 100000; i++ {
		pr.Next(&ins)
		if ins.Kind == KindBranch {
			total++
			if ins.Taken {
				taken++
			}
		}
	}
	rate := float64(taken) / float64(total)
	want := 7.0 / 8.0
	if math.Abs(rate-want) > 0.02 {
		t.Errorf("taken rate %.3f, want ~%.3f", rate, want)
	}
}

func BenchmarkProgramNext(b *testing.B) {
	pr := Zeusmp().NewProgram(testScale)
	var ins Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Next(&ins)
	}
}
