package main

// metric describes one reported number. BENCHMARK.json carries the same
// names, units, directions and bounds; TestBenchmarkJSON keeps the two in
// step.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the node sees. An input is one client
// message; it is complete when its verified result has reached the sink.
// failed_share is not listed: it must be 0, and the contract wants metrics
// that are never 0, so failures are reported as failed ÷ attempted beside
// the metrics.
//
// The tail metrics are means of the latencies between their 80th and 98th
// percentile, not the 95th percentile the issue named. A tail has knees:
// on history-lookup one input in twenty is slow and the 95th percentile
// sits where they begin (p90 13, p94 16, p95 18, p96 21, p97 24 ms in one
// run), on http-forward and procurement the ack times are steps of one
// flush and the 95th and the 90th percentile sit on a step's edge. A
// quantile on a knee jumps by a fifth when the slow share moves by a
// hundredth: eight runs of the same code spread by 19 % on history-lookup's
// e2e p95 and by 12 % on procurement's ack p90, and by at most 11 % on any
// workload's 80-98 mean, which reads like the 90th percentile where the tail
// is smooth. p95 and p99 are printed beside the metrics.
//
// Every bound is the contract's maximum of 25 %. The issue's starting values
// (7-15 %) hold for most pairings when the machine is calm, but
// history-lookup spreads by 8-13 % then, and the weather gate (weather.go)
// cannot wait out every episode (README.md, "Bounds and spreads").
var endToEnd = []metric{
	{"throughput_msgs_s", "inputs/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"ack_tail_ms", "ms", "lower", 0.25},
	{"e2e_p50_ms", "ms", "lower", 0.25},
	{"e2e_tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"reopen_s", "s", "lower", 0.25},
}

// perLayer are the single-layer numbers, grouped by the repository's
// packages. README.md says which end-to-end metric each should move.
var perLayer = []metric{
	{name: "gateway.admit_handler_us_p50", unit: "us", better: "lower"},
	{name: "gateway.admit_handler_us_p95", unit: "us", better: "lower"},
	{name: "gateway.http_overhead_us_p50", unit: "us", better: "lower"},
	{name: "gateway.out_send_us_p50", unit: "us", better: "lower"},
	{name: "gateway.out_cycle_us_p50", unit: "us", better: "lower"},
	{name: "gateway.retransmits", unit: "count", better: "lower"},
	{name: "gateway.duplicates", unit: "count", better: "lower"},
	{name: "gateway.late_share", unit: "ratio", better: "lower"},
	{name: "sink.recv_us_p50", unit: "us", better: "lower"},

	{name: "engine.pipeline_gap_us_p50", unit: "us", better: "lower"},
	{name: "engine.processed_per_input", unit: "count", better: "lower"},
	{name: "engine.rules_evaluated_per_input", unit: "count", better: "lower"},
	{name: "engine.fire_ratio", unit: "ratio", better: "higher"},
	{name: "engine.avg_batch_size", unit: "count", better: "higher"},
	{name: "engine.deadlocks_per_input", unit: "count", better: "lower"},
	{name: "engine.deadlock_requeues", unit: "count", better: "lower"},
	{name: "engine.backlog_mean", unit: "count", better: "lower"},
	{name: "engine.backlog_max", unit: "count", better: "lower"},
	{name: "engine.ingest_shed", unit: "count", better: "lower"},
	{name: "engine.errors", unit: "count", better: "lower"},

	{name: "xmldom.stream_encode_us_per_input", unit: "us", better: "lower"},
	{name: "xmldom.decode_us_per_input", unit: "us", better: "lower"},
	{name: "xmldom.serialize_us_per_input", unit: "us", better: "lower"},
	{name: "xmldom.encoded_bytes_per_wire_byte", unit: "ratio", better: "lower"},

	{name: "rule.eval_us_per_input", unit: "us", better: "lower"},
	{name: "rule.compile_ms", unit: "ms", better: "lower"},

	{name: "slicing.members_probe_us_p50", unit: "us", better: "lower"},
	{name: "slicing.gc_ms_per_pass", unit: "ms", better: "lower"},
	{name: "slicing.gc_collected_per_pass", unit: "count", better: "higher"},

	{name: "msgstore.doc_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "msgstore.doc_cache_evictions", unit: "count", better: "lower"},
	{name: "msgstore.payload_bytes_per_input", unit: "bytes", better: "lower"},
	{name: "msgstore.open_s", unit: "s", better: "lower"},

	{name: "store.commits_per_input", unit: "count", better: "lower"},
	{name: "store.flushes_per_input", unit: "count", better: "lower"},
	{name: "store.wal_bytes_per_input", unit: "bytes", better: "lower"},
	{name: "store.data_bytes_per_input", unit: "bytes", better: "lower"},
	{name: "store.write_amp", unit: "ratio", better: "lower"},
	{name: "store.read_ios_per_input", unit: "count", better: "lower"},
	{name: "store.flush_wait_share", unit: "ratio", better: "lower"},
	{name: "store.wal_coalesced_ratio", unit: "ratio", better: "higher"},
	{name: "store.buffer_hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.evictions", unit: "count", better: "lower"},
	{name: "store.checkpoints", unit: "count", better: "lower"},
	{name: "store.open_s", unit: "s", better: "lower"},

	{name: "go.cpu_ms_per_input", unit: "ms", better: "lower"},
	{name: "go.allocs_per_input", unit: "count", better: "lower"},
	{name: "go.alloc_kb_per_input", unit: "KB", better: "lower"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.accounted_share", unit: "ratio", better: "higher"},
	{name: "trace.inputs", unit: "count", better: "higher"},
}
