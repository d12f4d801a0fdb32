package main

// The names below are the benchmark's contract: BENCHMARK.json lists the
// same workloads and metrics (manifest_test.go checks both directions),
// and later issues cite them.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{"ndp_scan", "TPC-H SF0.005 scan pass with NDP pushdown on a pool a third of lineitem: time sits in pagestore NDP, core and plan; cluster bytes and buffer are nearly idle"},
	{"raw_scan", "same fleet, data and pass with NDP off: raw pages through the cluster codec into the small pool; an NDP-kernel change must not move it, a framing or buffer change must"},
	{"oltp_mixed", "durable fleet, 2 clients, 50% single-row INSERT commits and 50% point SELECTs on a cache-resident 100k-row table, beside checkpoints and log GC: the write path, where scans do no work"},
	{"htap_replica", "paced master commits into lineitem while a read replica runs the NDP pass on the same Page Stores: log apply and NDP at once, through logstore streams, replica ingest and version pins"},
}

// metricDef describes one reported metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the database sees. Every workload reports
// every one of them (the driver's contract); README.md says which cells
// come from a workload's main loop and which from its complement phase.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"scan_pass_p50_ms", "ms", "lower", 0.25},
	{"scan_pass_p90_ms", "ms", "lower", 0.25},
	{"scan_net_mb_per_pass", "MB", "lower", 0.10},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"stmt_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by the traced run (--trace 1): deltas of the
// product's public stats accessors over an untraced window (S in
// README.md), and span and probe timings from the traced fleet (T). A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// taurus: facade and process.
	{"taurus.alloc_kb_per_op", "KB", "lower", 0},
	{"taurus.frontend_self_ms_per_op", "ms", "lower", 0},
	{"taurus.span_coverage_frac", "frac", "higher", 0},
	{"taurus.trace_overhead_frac", "frac", "lower", 0},
	{"taurus.commit_p99_ms", "ms", "lower", 0},
	{"taurus.commit_max_ms", "ms", "lower", 0},
	{"taurus.reopen_ms", "ms", "lower", 0},
	{"taurus.writer_late_ticks", "count", "lower", 0},
	// Demoted from end-to-end, see README.md.
	{"taurus.commit_p95_ms", "ms", "lower", 0},
	{"taurus.read_p95_ms", "ms", "lower", 0},
	{"taurus.visible_delay_p50_ms", "ms", "lower", 0},
	{"taurus.visible_delay_p90_ms", "ms", "lower", 0},
	{"tpch.load_rows_per_s", "1/s", "higher", 0},
	{"sql.parse_us_per_stmt", "us", "lower", 0},
	{"plan.ndp_access_frac", "frac", "higher", 0},
	{"exec.operator_rows_per_pass", "count", "lower", 0},
	{"exec.expr_evals_per_pass", "count", "lower", 0},
	{"exec.sort_rows_per_pass", "count", "lower", 0},
	{"engine.rows_examined_sql_per_pass", "count", "lower", 0},
	{"engine.pred_evals_sql_per_pass", "count", "lower", 0},
	{"engine.ndp_pages_consumed_per_pass", "count", "higher", 0},
	{"engine.regular_page_reads_per_pass", "count", "lower", 0},
	{"engine.batch_reads_per_pass", "count", "lower", 0},
	{"engine.agg_merges_sql_per_pass", "count", "lower", 0},
	{"buffer.hit_rate", "frac", "higher", 0},
	{"buffer.misses_per_op", "count", "lower", 0},
	{"buffer.evictions_per_op", "count", "lower", 0},
	{"buffer.stale_refetches_per_op", "count", "lower", 0},
	{"btree.pages_per_point_read", "count", "lower", 0},
	{"sal.records_per_window", "count", "higher", 0},
	{"sal.commit_waits_per_commit", "count", "lower", 0},
	{"sal.apply_waits_per_read", "count", "lower", 0},
	{"sal.backpressure_stalls", "count", "lower", 0},
	{"sal.stage_wait_ms_p50", "ms", "lower", 0},
	{"sal.stage_seal_ms_p50", "ms", "lower", 0},
	{"sal.stage_append_ms_p50", "ms", "lower", 0},
	{"sal.stage_durable_wait_ms_p50", "ms", "lower", 0},
	{"sal.stage_apply_ms_p50", "ms", "lower", 0},
	{"sal.stage_sum_over_commit_p50", "frac", "higher", 0},
	{"sal.scan_routed_per_pass", "count", "lower", 0},
	{"sal.scan_retried_per_pass", "count", "lower", 0},
	{"sal.hedge_frac", "frac", "lower", 0},
	{"cluster.batch_read_calls_per_pass", "count", "lower", 0},
	{"cluster.page_read_calls_per_pass", "count", "lower", 0},
	{"cluster.log_write_calls_per_commit", "count", "lower", 0},
	{"cluster.req_kb_per_op", "KB", "lower", 0},
	{"cluster.reply_kb_per_op", "KB", "lower", 0},
	{"cluster.call_ms_p50.batch_read", "ms", "lower", 0},
	{"cluster.call_ms_p50.read_page", "ms", "lower", 0},
	{"cluster.call_ms_p50.write_logs", "ms", "lower", 0},
	{"cluster.call_ms_p50.log_append", "ms", "lower", 0},
	{"cluster.self_ms_per_op", "ms", "lower", 0},
	{"cluster.codec_ns_per_kb", "ns/KB", "lower", 0},
	{"logstore.append_handle_ms_p50", "ms", "lower", 0},
	{"logstore.pending_holes_max", "count", "lower", 0},
	{"logstore.stream_lag_max", "count", "lower", 0},
	{"plog.syncs_per_commit", "count", "lower", 0},
	{"plog.appends_per_sync", "count", "higher", 0},
	{"plog.disk_bytes_per_user_byte", "frac", "lower", 0},
	{"plog.append_fsync_ms_p50", "ms", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.encode_ns_per_record", "ns", "lower", 0},
	{"wal.decode_ns_per_record", "ns", "lower", 0},
	{"pagestore.batch_read_handle_ms_p50", "ms", "lower", 0},
	{"pagestore.read_page_handle_ms_p50", "ms", "lower", 0},
	{"pagestore.write_logs_handle_ms_p50", "ms", "lower", 0},
	{"pagestore.busy_ms_per_op", "ms", "lower", 0},
	{"pagestore.ndp_pages_processed_per_pass", "count", "higher", 0},
	{"pagestore.ndp_skip_frac", "frac", "lower", 0},
	{"pagestore.ndp_records_in_per_pass", "count", "lower", 0},
	{"pagestore.ndp_selectivity", "frac", "lower", 0},
	{"pagestore.desc_cache_hit_rate", "frac", "higher", 0},
	{"pagestore.log_records_applied_per_commit", "count", "lower", 0},
	{"pagestore.log_records_skipped_per_commit", "count", "lower", 0},
	{"core.process_page_us_p50", "us", "lower", 0},
	{"core.ns_per_record", "ns", "lower", 0},
	{"page.decode_ns_per_record", "ns", "lower", 0},
	{"pstore.checkpoints_completed", "count", "higher", 0},
	{"pstore.checkpoint_mb", "MB", "lower", 0},
	{"pstore.checkpoint_ms", "ms", "lower", 0},
	{"replica.lag_records_p50", "count", "lower", 0},
	{"replica.stream_batches_per_commit", "count", "lower", 0},
	{"replica.pages_invalidated_per_commit", "count", "lower", 0},
	{"replica.refreshes_per_s", "1/s", "lower", 0},
	{"replica.resyncs", "count", "lower", 0},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}
