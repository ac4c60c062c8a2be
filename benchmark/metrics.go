package main

import "fmt"

// metricDef names one metric of the benchmark. Bound is the share of the
// parent commit's median by which an end-to-end metric may get worse before
// a change counts as a regression (and the tolerance two sets of runs of
// the same code must agree within); per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, the same five on every
// workload. BENCHMARK.json repeats this table; smoke_test.go keeps the two
// in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_ms_p50", "ms", "lower", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer is every metric of a single layer, grouped as README.md explains
// them. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Set-up path → setup_s, rss_mb.
	{Name: "genmat.source_s", Unit: "s", Better: "lower"},
	{Name: "matrix.materialize_s", Unit: "s", Better: "lower"},
	{Name: "matrix.rows", Unit: "count", Better: "lower"},
	{Name: "matrix.nnz", Unit: "count", Better: "lower"},
	{Name: "core.partition_s", Unit: "s", Better: "lower"},
	{Name: "core.plan_build_s", Unit: "s", Better: "lower"},
	{Name: "core.cluster_up_s", Unit: "s", Better: "lower"},
	{Name: "core.plan_bytes", Unit: "B", Better: "lower"},
	{Name: "core.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "serve.register_s", Unit: "s", Better: "lower"},
	{Name: "simnet.workload_build_s", Unit: "s", Better: "lower"},
	{Name: "harness.setup_cold_s", Unit: "s", Better: "lower"},
	// Node kernel → ops_per_s, op_ms_p50 on the mul and cg workloads.
	{Name: "spmv.serial_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "spmv.parallel_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "spmv.split_penalty_pct", Unit: "%", Better: "lower"},
	{Name: "spmv.team_forkjoin_us", Unit: "us", Better: "lower"},
	{Name: "formats.sell_serial_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "formats.sell_beta", Unit: "ratio", Better: "higher"},
	{Name: "formats.sell_convert_s", Unit: "s", Better: "lower"},
	{Name: "stream.triad_gbs.1", Unit: "GB/s", Better: "higher"},
	{Name: "stream.triad_gbs.2", Unit: "GB/s", Better: "higher"},
	{Name: "perfmodel.code_balance", Unit: "B/flop", Better: "lower"},
	{Name: "perfmodel.bound_gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "spmv.frac_of_bound", Unit: "ratio", Better: "higher"},
	// Cluster step → the mul workloads.
	{Name: "core.mvm_ms.task", Unit: "ms", Better: "lower"},
	{Name: "core.mvm_ms.vector", Unit: "ms", Better: "lower"},
	{Name: "core.mvm_ms.naive", Unit: "ms", Better: "lower"},
	{Name: "core.overlap_gain_pct", Unit: "%", Better: "higher"},
	{Name: "core.step_skew_pct", Unit: "%", Better: "lower"},
	{Name: "core.job_submit_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.halo_elems_per_step", Unit: "count", Better: "lower"},
	{Name: "core.msgs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.halo_bytes_per_step", Unit: "B", Better: "lower"},
	// Transports → hmep-mul-tcp (bulk), samg-cg-tcp (allreduce).
	{Name: "tcpmpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "tcpmpi.bulk_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "tcpmpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "tcpmpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "chanmpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "chanmpi.bulk_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "chanmpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "chanmpi.barrier_us", Unit: "us", Better: "lower"},
	// Solver → samg-cg-tcp.
	{Name: "solver.iterations", Unit: "count", Better: "lower"},
	{Name: "solver.residual", Unit: "ratio", Better: "lower"},
	{Name: "solver.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.mvm_share_pct", Unit: "%", Better: "lower"},
	{Name: "solver.reduce_share_pct", Unit: "%", Better: "lower"},
	{Name: "solver.vecops_share_pct", Unit: "%", Better: "lower"},
	{Name: "solver.serial_cg_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "B", Better: "lower"},
	// Serving → serve-mul-http.
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.wire_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.do_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.retried", Unit: "count", Better: "lower"},
	// Simulator → sim-sweep.
	{Name: "simnet.events.task", Unit: "count", Better: "lower"},
	{Name: "simnet.events.vector", Unit: "count", Better: "lower"},
	{Name: "simnet.events.naive", Unit: "count", Better: "lower"},
	{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "simnet.point_ms.task", Unit: "ms", Better: "lower"},
	{Name: "simnet.point_ms.vector", Unit: "ms", Better: "lower"},
	{Name: "simnet.point_ms.naive", Unit: "ms", Better: "lower"},
	{Name: "simnet.model_gflops.task", Unit: "GFlop/s", Better: "higher"},
	{Name: "simnet.model_gflops.vector", Unit: "GFlop/s", Better: "higher"},
	{Name: "simnet.model_gflops.naive", Unit: "GFlop/s", Better: "higher"},
	// The benchmark about itself.
	{Name: "harness.op_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "harness.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "harness.op_samples", Unit: "count", Better: "higher"},
	{Name: "harness.op_ms_median", Unit: "ms", Better: "lower"},
	{Name: "harness.ops_per_s_median", Unit: "1/s", Better: "higher"},
	{Name: "harness.ops_per_s_mean", Unit: "1/s", Better: "higher"},
	{Name: "harness.block_iqr_pct", Unit: "%", Better: "lower"},
	{Name: "harness.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.trace_self_sum_pct", Unit: "%", Better: "higher"},
}

// value is one measured metric as result files and the contract line carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measured values. set refuses a name the
// catalogue does not know, so a typo cannot create a metric nobody declared.
type metrics map[string]value

var units = func() map[string]string {
	u := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.Name] = d.Unit
		}
	}
	return u
}()

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalogue", name))
	}
	m[name] = value{Value: v, Unit: unit}
}
