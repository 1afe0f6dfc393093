package main

// endToEndMetrics are what a user of the system sees; every untraced
// run prints all of them (BENCHMARK.json takes one metric list for
// every workload, so each is defined on each workload).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},                 // median of the run's set-ups
	{"sim_minstr_per_s", "Minstr/s"}, // instructions retired through the RunLoop / timed wall time
	{"alloc_b_per_instr", "B/instr"}, // Go heap bytes allocated per simulated instruction
}

// perLayerMetrics are printed by the traced run. Counts and times are
// per round; latencies are over every traced round's samples.
var perLayerMetrics = []struct{ name, unit string }{
	{"chip.run_s", "s"},
	{"chip.runs", "count"},
	{"chip.instret", "count"},
	{"chip.host_ns_per_instr", "ns"},
	{"indra.outside_run_s", "s"},
	{"fleet.outside_run_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"cache.l1i_misses", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_misses", "count"},
	{"dram.accesses", "count"},
	{"dram.row_hits", "count"},
	{"fifo.pushes", "count"},
	{"fifo.stall_cycles", "count"},
	{"monitor.records", "count"},
	{"monitor.cycles", "count"},
	{"monitor.violations", "count"},
	{"checkpoint.line_backups", "count"},
	{"checkpoint.backup_cycles", "count"},
	{"chip.sim_cycles", "count"},
	{"parallel.jobs", "count"},
	{"parallel.busy_s", "s"},
	{"parallel.busy_ratio", "ratio"},
	{"warmboot.hits", "count"},
	{"warmboot.misses", "count"},
	{"serve.worker_s", "s"},
	{"serve.executions", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.exec_p50_ms", "ms"},
	{"serve.queue_high", "count"},
	{"cluster.router_us_per_req", "us"},
	{"cluster.proxied", "count"},
	{"cluster.coalesced", "count"},
	{"cluster.proxy_p50_us", "us"},
	{"client.hit_p50_us", "us"},
	{"client.hit_p99_us", "us"},
	{"client.miss_p50_ms", "ms"},
	{"client.miss_p90_ms", "ms"},
	{"trace.untraced_ns_per_instr", "ns"},
	{"trace.traced_ns_per_instr", "ns"},
}

var (
	metricUnits = map[string]string{}
	endToEnd    = map[string]bool{}
)

func init() {
	for _, m := range endToEndMetrics {
		metricUnits[m.name] = m.unit
		endToEnd[m.name] = true
	}
	for _, m := range perLayerMetrics {
		metricUnits[m.name] = m.unit
	}
	for _, pkg := range profilePackages {
		metricUnits[pkg+".self_s"] = "s"
	}
}
