package warm

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/statstack"
	"repro/internal/vm"
	"repro/internal/workload"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Regions = 3
	cfg.PaperGap = 1_000_000
	cfg.Scale = 1
	cfg.LLCPaperBytes = 256 * 1024
	return cfg
}

func testProf() *workload.Profile {
	return &workload.Profile{
		Name: "warm-test", MemRatio: 0.4, BranchRatio: 0.1, FPFrac: 0.1,
		LoopDuty: 16, RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: 31,
		Streams: []workload.StreamSpec{
			{Kind: workload.Rand, Weight: 0.6, PaperBytes: 4 * 1024, PCs: 8, WriteFrac: 0.3},
			{Kind: workload.Seq, Weight: 0.25, PaperBytes: 128 * 1024, PCs: 4, WriteFrac: 0.4},
			{Kind: workload.Rand, Weight: 0.15, PaperBytes: 1024 * 1024, PCs: 4, WriteFrac: 0.2},
		},
	}
}

// TestConfigValidate: the paper defaults pass, and each configuration
// whose regions or windows cannot be laid out forward along the stream is
// rejected with an error naming its field.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := map[string]func(c *Config){
		"Scale":           func(c *Config) { c.Scale = 0 },
		"Regions":         func(c *Config) { c.Regions = 0 },
		"DetailWarm":      func(c *Config) { c.DetailWarm = c.Gap() - c.RegionLen + 1 },
		"PaperGap":        func(c *Config) { c.Scale, c.PaperGap = 1, 1<<62 },
		"ExplorerWindows": func(c *Config) { c.ExplorerWindows = []float64{0.05, 0.05} },
		"RSWSchedule":     func(c *Config) { c.RSWSchedule = []RSWSegment{{0.8, 1}, {0.3, 1}, {0.1, 1}} },
	}
	for field, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", field, err)
		}
	}
	edge := DefaultConfig()
	edge.DetailWarm = edge.Gap() - edge.RegionLen
	edge.ExplorerWindows = []float64{1}
	if err := edge.Validate(); err != nil {
		t.Errorf("config at the layout limits rejected: %v", err)
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Gap() != 1_000_000_000/64 {
		t.Errorf("Gap = %d", cfg.Gap())
	}
	if cfg.RegionStart(0) != cfg.Gap() {
		t.Error("first region must sit one gap in")
	}
	if cfg.TotalInstr() != cfg.RegionStart(cfg.Regions-1)+cfg.RegionLen {
		t.Error("TotalInstr inconsistent")
	}
	if w := cfg.WindowInstr(0); w != cfg.Gap()/200 {
		t.Errorf("Explorer-1 window = %d, want gap*0.005", w)
	}
	if w := cfg.WindowInstr(3); w != cfg.Gap() {
		t.Errorf("Explorer-4 window = %d, want the whole gap", w)
	}
	var f float64
	for _, s := range cfg.RSWSchedule {
		f += s.Frac
	}
	if f != 1.0 {
		t.Errorf("RSW schedule fractions sum to %f", f)
	}
}

func TestRunSMARTS(t *testing.T) {
	res := RunSMARTS(testProf(), testCfg())
	if len(res.Regions) != 3 {
		t.Fatalf("regions = %d", len(res.Regions))
	}
	if cpi := res.CPI(); cpi < 0.125 || cpi > 20 {
		t.Errorf("CPI = %f, implausible", cpi)
	}
	// SMARTS must charge functional-cache warming across the gaps.
	if res.Counters.Get("win/"+vm.KindFuncCache) == 0 {
		t.Error("SMARTS charged no functional warming")
	}
	if res.Counters.Get("fix/"+vm.KindDetail) != float64(3*(10_000+30_000)) {
		t.Errorf("detail charge = %f", res.Counters.Get("fix/"+vm.KindDetail))
	}
}

func TestRunCoolSim(t *testing.T) {
	cfg := testCfg()
	res := RunCoolSim(testProf(), cfg)
	if len(res.Regions) != 3 {
		t.Fatalf("regions = %d", len(res.Regions))
	}
	if res.Counters.Get("win/reuse_rsw") == 0 {
		t.Error("CoolSim collected no reuse samples")
	}
	if res.Counters.Get("win/"+vm.KindVDP) == 0 {
		t.Error("CoolSim charged no VDP instructions")
	}
	if res.Counters.Get("win/"+vm.KindTrigger) == 0 {
		t.Error("CoolSim paid no watchpoint triggers")
	}
	if cpi := res.CPI(); cpi < 0.125 || cpi > 20 {
		t.Errorf("CPI = %f, implausible", cpi)
	}
}

func TestCoolSimVsSMARTSAccuracy(t *testing.T) {
	cfg := testCfg()
	prof := testProf()
	ref := RunSMARTS(prof, cfg).CPI()
	got := RunCoolSim(prof, cfg).CPI()
	err := (got - ref) / ref
	if err < 0 {
		err = -err
	}
	// CoolSim is the approximate baseline: generous bound, but it must be
	// in the right ballpark.
	if err > 0.6 {
		t.Errorf("CoolSim CPI %f vs SMARTS %f: error %.1f%% too large", got, ref, err*100)
	}
	t.Logf("CoolSim error vs SMARTS: %.2f%%", err*100)
}

// TestEvalRegionOracleSwap: the oracle must be armed only for the measured
// region, not the detailed warming.
type countingOracle struct{ calls int }

func (o *countingOracle) OverrideMiss(a *mem.Access, lv cache.Level) bool {
	o.calls++
	return false
}

func TestEvalRegionOracleSwap(t *testing.T) {
	cfg := testCfg()
	prof := testProf()
	prog := prof.NewProgram(cfg.Scale)
	eng := vm.NewEngine(prog)
	eng.FastForwardTo(cfg.RegionStart(0) - cfg.DetailWarm)
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	cr := cpu.NewCore(cfg.CPU, hier, nil)
	o := &countingOracle{}
	rr := EvalRegion(cfg, eng, cr, o)
	if o.calls == 0 {
		t.Error("oracle never consulted during the region")
	}
	if rr.Stats.Instructions != cfg.RegionLen {
		t.Errorf("region instructions = %d", rr.Stats.Instructions)
	}
	if hier.Oracle != nil {
		t.Error("oracle must be disarmed after the region")
	}
}

func TestDSWOracleDecisions(t *testing.T) {
	cfg := testCfg()
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	// Vicinity: mostly short reuses plus a censored (cold) tail, as real
	// vicinity profiles have — the tail is what makes the expected stack
	// distance keep growing with reuse distance.
	vic := &stats.RDHist{}
	for i := 0; i < 1000; i++ {
		vic.Add(100)
	}
	vic.AddCold(50)
	records := []reuse.KeyRecord{
		{Line: 1, Dist: 50, Found: true, Explorer: 1},      // short reuse -> warming hit
		{Line: 2, Dist: 1 << 40, Found: true, Explorer: 4}, // enormous reuse -> capacity miss
		{Line: 3, Found: false},                            // never found -> cold miss
	}
	o := NewDSWOracle(records, vic, nil, hier)
	mk := func(line mem.Line) *mem.Access { return &mem.Access{Addr: line.Base()} }
	if !o.OverrideMiss(mk(1), cache.LevelLLC) {
		t.Error("short-reuse key should be a warming hit")
	}
	if o.OverrideMiss(mk(2), cache.LevelLLC) {
		t.Error("huge-reuse key should be a capacity miss")
	}
	if o.OverrideMiss(mk(3), cache.LevelLLC) {
		t.Error("unfound key should be a cold miss")
	}
	if o.OverrideMiss(mk(4), cache.LevelLLC) {
		t.Error("non-key line should never be overridden")
	}
	if o.WarmingMisses != 1 || o.CapacityMisses != 1 || o.ColdMisses != 2 {
		t.Errorf("diagnostics: %+v", o)
	}
}

func TestDSWOracleConflict(t *testing.T) {
	cfg := testCfg()
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	// Fill one L1D set completely.
	sets := hier.Cfg.L1D.Sets()
	var target mem.Line = 5
	for w := 0; w < hier.Cfg.L1D.Assoc; w++ {
		hier.L1D.Install(target + mem.Line(uint64(w+1)*sets))
	}
	vic := &stats.RDHist{}
	vic.Add(10)
	o := NewDSWOracle([]reuse.KeyRecord{{Line: target, Dist: 5, Found: true, Explorer: 1}}, vic, nil, hier)
	if o.OverrideMiss(&mem.Access{Addr: target.Base()}, cache.LevelL1) {
		t.Error("full lukewarm set must be a conflict miss")
	}
	if o.ConflictMisses != 1 {
		t.Errorf("ConflictMisses = %d", o.ConflictMisses)
	}
}

func TestRSWOracleFallback(t *testing.T) {
	cfg := testCfg()
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	s := reuse.NewForwardSampler(1, true)
	// Global distribution: short reuses (warm) under PC 0x10.
	for i := uint64(0); i < 200; i++ {
		s.Start(&mem.Access{PC: 0x10, Addr: mem.Addr(i * 64), MemIdx: i})
		s.Complete(&mem.Access{PC: 0x10, Addr: mem.Addr(i * 64), MemIdx: i + 20})
	}
	o := NewRSWOracle(s, hier, 1)
	// A PC with no samples must fall back to the global distribution and
	// classify short-reuse accesses as hits.
	hits := 0
	for i := 0; i < 100; i++ {
		if o.OverrideMiss(&mem.Access{PC: 0x99, Addr: mem.Addr(i * 4096), MemIdx: uint64(1000 + i)}, cache.LevelLLC) {
			hits++
		}
	}
	if hits < 90 {
		t.Errorf("fallback hits = %d/100, want ~100 for short global reuses", hits)
	}
}

func TestRSWOracleAssocShrinks(t *testing.T) {
	cfg := testCfg()
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	s := reuse.NewForwardSampler(1, false)
	o := NewRSWOracle(s, hier, 1)
	base := o.llcLines
	am := statstack.NewAssocModel()
	for i := 0; i < 8192; i++ {
		am.AddLine(mem.Line(i * 8)) // dominant stride: 1/8 of the sets
	}
	o.SetAssoc(am)
	if o.llcLines >= base {
		t.Errorf("assoc model did not shrink effective LLC: %d >= %d", o.llcLines, base)
	}
}
