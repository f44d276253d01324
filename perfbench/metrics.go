package main

// metric is one reported figure, as BENCHMARK.json declares it.
type metric struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics of the untraced runs. Every workload reports
// every one of them, so each is defined for all three workloads; NOTES.md
// gives the per-workload meaning.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"host_mips", "MIPS", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// corePasses are the DeLorean passes in pipeline order, with the ledger
// name core.DeLorean.PassLedgers uses for each.
var corePasses = []struct{ metric, ledger string }{
	{"scout", "scout"},
	{"explorer1", "explorer-1"},
	{"explorer2", "explorer-2"},
	{"explorer3", "explorer-3"},
	{"explorer4", "explorer-4"},
	{"analyst", "analyst"},
}

// perLayer lists the metrics of the traced run. Every workload reports
// every one of them; a layer the workload does not reach reads 0.
var perLayer = func() []metric {
	var ms []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{n, unit, better})
		}
	}
	for _, p := range corePasses {
		add("s", "lower", "core."+p.metric+"_s")
	}
	for _, p := range corePasses {
		add("ns/instr", "lower", "core."+p.metric+"_ns_per_instr")
	}
	add("count", "lower", "core.explorers_engaged", "core.keys_total", "core.keys_unresolved")
	add("ratio", "lower", "core.pass_sum_ratio")
	add("ns/instr", "lower", "workload.skip_ns_per_instr", "workload.fill_ns_per_instr")
	add("count", "lower", "vm.instr_vff", "vm.instr_func", "vm.instr_funccache", "vm.instr_vdp",
		"vm.instr_detail", "vm.triggers", "vm.sample_stops")
	add("ratio", "lower", "vm.trigger_fp_frac")
	add("count", "higher", "warm.warming_hits.coolsim", "warm.warming_hits.delorean")
	add("ratio", "higher", "warm.lukewarm_hit_rate")
	add("ratio", "lower", "sampling.cpi_err_delorean", "sampling.cpi_err_coolsim")
	add("ratio", "higher", "sampling.modeled_speedup")
	add("s", "lower", "runner.job_s.sampling.smarts", "runner.job_s.sampling.coolsim",
		"runner.job_s.sampling.delorean", "runner.job_s.corun-profile", "runner.job_s.corun-cal",
		"runner.job_s.corun-warm", "runner.job_s.corun-sim", "runner.job_s.labd.cold",
		"runner.job_s.labd.disk")
	add("count", "lower", "runner.executions")
	add("count", "higher", "runner.mem_hits", "runner.store_hits")
	add("count", "higher", "cpu.instructions")
	add("count", "lower", "cpu.cycles")
	add("ratio", "higher", "cache.l1d_hit_rate")
	add("ratio", "lower", "cache.llc_miss_ratio")
	add("ns", "lower", "multiprog.sim_ns_per_access")
	add("ratio", "lower", "multiprog.corun_cpi_err")
	add("ms", "lower", "lab.submit_ms.cold", "lab.submit_ms.disk", "lab.submit_ms.mem",
		"lab.wait_ms.cold", "lab.wait_ms.disk", "lab.wait_ms.mem",
		"lab.cold_p50_ms", "lab.cold_p90_ms", "lab.disk_p50_ms", "lab.disk_p90_ms",
		"lab.mem_p50_ms", "lab.mem_p99_ms")
	add("1/s", "higher", "lab.req_per_s")
	add("count", "higher", "lab.accepted", "lab.cached_200")
	add("count", "lower", "lab.rejected_429", "journal.records", "journal.syncs")
	add("count", "lower", "artifact.saves")
	add("count", "higher", "artifact.hits")
	add("count", "lower", "artifact.load_misses", "artifact.corrupt")
	add("MiB", "lower", "go.alloc_mb")
	add("count", "lower", "go.gc_cycles")
	add("ms", "lower", "go.gc_pause_ms")
	add("s", "lower", "trace_overhead_s")
	return ms
}()
