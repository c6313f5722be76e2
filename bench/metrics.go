package main

// metricDef is one named metric of the benchmark. ../BENCHMARK.json lists
// the same names, units, directions and bounds; bench_test.go keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative change beyond which -compare, and the driver for
	// the metrics BENCHMARK.json lists end to end, call a difference a
	// regression. End-to-end metrics only.
	Bound float64
	// Exact marks numbers on the modeled clock and counts that repeat bit
	// for bit at a fixed seed: -compare demands equality.
	Exact bool
	// Workload, when set, names the only workload that produces the metric.
	Workload string
	// DriverPerLayer marks an end-to-end metric that BENCHMARK.json has to
	// list under per_layer, where the driver applies no bound: it accepts
	// end to end only metrics that are non-zero on every workload and whose
	// spread over ten runs stays inside a bound of at most 25 %. -compare
	// still applies the bound.
	DriverPerLayer bool
}

// endToEndMetrics are the issue's 13, measured with tracing off; -compare
// judges every one of them by the bound given here.
//
// The builder's sandbox gives its two vCPUs full speed or about half of it,
// for seconds or for minutes at a time (README.md, "Bounds and spreads"), so
// ten runs of one commit spread (IQR over median) by 3-13 % in calm hours
// and by 17-46 % otherwise on every host-clock metric. By the issue's rule
// a metric whose observed spread exceeds its bound is not given a wider
// bound: it keeps the issue's bound for -compare, which reports it as
// unresolved whenever a side's own runs spread beyond that bound, and it
// moves to BENCHMARK.json's per_layer list, where the driver does not judge
// it. Three bounds differ from the issue's, each because the driver's
// contract says so: setup_s has "the largest bound" (25 %, not 20 %),
// peak_rss_mb needs room for the 16 % spread that GC timing gives the
// cluster (25 %, not 10 %), and the modeled metrics, exact at a fixed seed,
// get 2 % for the driver's runs at different seeds (they spread by 0.5 %).
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.07, DriverPerLayer: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, DriverPerLayer: true},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15, DriverPerLayer: true},
	{Name: "open_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, DriverPerLayer: true},
	{Name: "open_p99_ms", Unit: "ms", Better: "lower", Bound: 0.15, DriverPerLayer: true},
	{Name: "cpu_s_per_kop", Unit: "s", Better: "lower", Bound: 0.07, DriverPerLayer: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "modeled_mean_ms", Unit: "ms", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "modeled_p99_ms", Unit: "ms", Better: "lower", Bound: 0.02, Exact: true},
	// 0 on every run that passes its output check, so the driver cannot take
	// it end to end; the contract line's failed/attempted carry it there.
	{Name: "failed_share", Unit: "ratio", Better: "lower", Exact: true, DriverPerLayer: true},
	{Name: "write_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workload: "mixed_ingest", DriverPerLayer: true},
	{Name: "write_ack_p99_ms", Unit: "ms", Better: "lower", Bound: 0.30, Workload: "mixed_ingest", DriverPerLayer: true},
}

// perLayerMetrics are reported by a -trace 1 run: in-process probes on the
// shared fixture plus what the workload's own server run exposes.
var perLayerMetrics = []metricDef{
	// codecs
	{Name: "ef.decompress_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ef.compress_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ef.bits_per_elem", Unit: "bits", Better: "lower", Exact: true},
	{Name: "pfordelta.bits_per_elem", Unit: "bits", Better: "lower", Exact: true},
	// index
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.load_s", Unit: "s", Better: "lower"},
	{Name: "index.file_mb", Unit: "MB", Better: "lower", Exact: true},
	{Name: "index.freq_lookup_ns", Unit: "ns", Better: "lower"},
	// host intersection and ranking
	{Name: "intersect.svs_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "rank.score_ns_per_cand", Unit: "ns", Better: "lower"},
	{Name: "rank.topk_ns_per_query", Unit: "ns", Better: "lower"},
	// device kernels: host cost of simulating them, and their modeled cost
	{Name: "kernels.paraef_host_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "kernels.mergepath_host_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "kernels.binsearch_host_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "kernels.paraef_modeled_ns_per_elem", Unit: "ns", Better: "lower", Exact: true},
	{Name: "kernels.mergepath_modeled_ns_per_elem", Unit: "ns", Better: "lower", Exact: true},
	// device executor, runtime and batcher
	{Name: "gpu.launch_host_ns", Unit: "ns", Better: "lower"},
	{Name: "gpu.launch_allocs", Unit: "count", Better: "lower"},
	{Name: "gpu.submit_host_ns", Unit: "ns", Better: "lower"},
	{Name: "gpu.launches_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "gpu.utilization", Unit: "ratio", Better: "higher"},
	{Name: "gpu.wait_modeled_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "gpu.batch_mean_size", Unit: "count", Better: "higher"},
	{Name: "gpu.batch_saved_us_per_query", Unit: "us", Better: "higher"},
	{Name: "gpu.peer_copies_per_query", Unit: "count", Better: "lower"},
	// hardware model
	{Name: "hwmodel.fig14_speedup", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "hwmodel.sim_slowdown", Unit: "ratio", Better: "lower"},
	// scheduler
	{Name: "sched.migrated_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "sched.gpu_op_share", Unit: "ratio", Better: "higher", Exact: true},
	// plan executor
	{Name: "exec.run_host_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "exec.self_host_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "exec.ops_per_query", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.upload", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.decompress", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.intersect_gpu", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.intersect_cpu", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.migrate", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.score", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.modeled_us_per_query.topk", Unit: "us", Better: "lower", Exact: true},
	{Name: "exec.est_ratio_p50", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "exec.est_ratio_p99", Unit: "ratio", Better: "lower", Exact: true},
	// engine
	{Name: "core.search_host_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.self_host_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.cache_hit_rate", Unit: "ratio", Better: "higher"},
	// cluster
	{Name: "cluster.search_host_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "cluster.fanout_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.merge_modeled_us", Unit: "us", Better: "lower", Exact: true},
	{Name: "cluster.retries_per_kquery", Unit: "count", Better: "lower"},
	{Name: "cluster.hedges_per_kquery", Unit: "count", Better: "lower"},
	{Name: "cluster.degraded_share", Unit: "ratio", Better: "lower"},
	// overload control
	{Name: "overload.gate_ns", Unit: "ns", Better: "lower"},
	{Name: "overload.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "overload.deadline_miss_share", Unit: "ratio", Better: "lower"},
	{Name: "overload.retry_tokens_denied", Unit: "count", Better: "lower"},
	// live ingest
	{Name: "ingest.mutate_host_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.overlay_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.merges", Unit: "count", Better: "higher"},
	{Name: "ingest.merge_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.merge_modeled_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.lag_peak", Unit: "count", Better: "lower"},
	// write-ahead log
	{Name: "wal.append_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower", Exact: true},
	{Name: "wal.syncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.sigkill_restart_s", Unit: "s", Better: "lower"},
	{Name: "wal.fsync_probe_us", Unit: "us", Better: "lower"},
	// HTTP handler
	{Name: "server.search_handle_ns", Unit: "ns", Better: "lower"},
	{Name: "server.self_host_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "server.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.ingest_handle_ns", Unit: "ns", Better: "lower"},
	// the benchmark process during the traced replay
	{Name: "proc.alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "proc.gc_cycles_per_kquery", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_p99", Unit: "ms", Better: "lower"},
	// the load generator and the tracer themselves
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// driverEndToEnd are the end-to-end metrics BENCHMARK.json lists as such.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEndMetrics {
		if !d.DriverPerLayer {
			out = append(out, d)
		}
	}
	return out
}

// driverPerLayer is BENCHMARK.json's per_layer list: the end-to-end metrics
// the driver cannot take as such, then the per-layer metrics.
func driverPerLayer() []metricDef {
	var out []metricDef
	for _, d := range endToEndMetrics {
		if d.DriverPerLayer {
			out = append(out, d)
		}
	}
	return append(out, perLayerMetrics...)
}

// runSeconds is the measured time per run the contract freezes: 10 s closed
// loop plus 10 s open loop.
const runSeconds = 20
