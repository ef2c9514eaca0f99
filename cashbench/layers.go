package main

// layerUnits lists every per-layer metric a traced run reports, with its
// unit, in the order BENCHMARK.json lists them. Every workload reports
// all of them: a layer the workload does not drive reads 0.
var layerUnits = []struct{ name, unit string }{
	// sweep
	{"oracle.cells", "count"},
	{"oracle.cell_ms.p50", "ms"},
	{"oracle.cell_ms.max", "ms"},
	{"workload.gen_ms", "ms"},
	{"workload.gen_share", "frac"},
	{"ssim.self_share", "frac"},
	{"par.busy_frac", "frac"},
	{"sim.instrs", "count"},
	{"sim.cycles", "count"},
	// reproduce
	{"oracle.load_ms", "ms"},
	{"oracle.lookup_ms", "ms"},
	{"experiment.run_ms", "ms"},
	{"experiment.server_ms", "ms"},
	{"experiment.quanta", "count"},
	{"experiment.reconfigs", "count"},
	{"experiment.stall_cycles", "count"},
	{"experiment.instrs", "count"},
	{"experiment.minstr_per_s", "Minstr/s"},
	{"cashrt.decide_calls", "count"},
	{"cashrt.decide_us.p50", "us"},
	{"serve.served", "count"},
	{"serve.shed", "count"},
	{"serve.timed_out", "count"},
	// cashd
	{"daemon.submit_ms.p50", "ms"},
	{"daemon.submit_ms.p95", "ms"},
	{"daemon.wire_us", "us"},
	{"supervise.journal_us.p50", "us"},
	{"supervise.journal_us.p99", "us"},
	{"daemon.epoch_lag_ms.p99", "ms"},
	{"daemon.epochs", "count"},
	{"daemon.cells_landed", "count"},
	{"client.errors", "count"},
	{"cashd.shed", "count"},
	{"loadgen.lag_ms.max", "ms"},
	// every workload
	{"trace.overhead_frac", "frac"},
}

// layerMetrics attaches units to a workload's per-layer values and
// fills the layers it does not drive with 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("cashbench: per-layer metric " + name + " is not in layerUnits")
		}
	}
	return out
}
