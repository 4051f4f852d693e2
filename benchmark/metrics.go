package main

import "math"

// metricDecl is one metric the benchmark prints. The lists below are
// repeated in BENCHMARK.json; the test keeps the two equal.
type metricDecl struct {
	name, unit string
	higher     bool // true when a higher value is better
}

var endToEnd = []metricDecl{
	{"ops_per_s", "1/s", true},
	{"cpu_us_per_op", "us", false},
	{"short_p50_us", "us", false},
	{"short_p99_us", "us", false},
	{"t1_p50_ms", "ms", false},
	{"live_heap_mb", "MB", false},
	{"setup_s", "s", false},
}

var perLayer = func() []metricDecl {
	d := []metricDecl{
		{"harness.floor_ns_per_op", "ns", false},
		{"harness.pick_ns_per_op", "ns", false},
		{"harness.slice_spread", "ratio", false},
		{"sync7.lock_ns_per_op", "ns", false},
		{"sync7.lock_share", "ratio", false},
		{"ops.body_share", "ratio", true},
		{"ops.logical_fail_share", "ratio", false},
		{"core.build_s", "s", false},
		{"stm.txn_overhead_ns_per_op", "ns", false},
		{"stm.access_overhead_ns", "ns", false},
		{"stm.contention_ns_per_op", "ns", false},
		{"stm.attempts_per_op", "ratio", false},
		{"stm.wasted_body_share", "ratio", false},
		{"stm.conflict_abort_share", "ratio", false},
		{"stm.validations_per_read", "ratio", false},
		{"stm.reads_per_commit", "count", false},
		{"stm.writes_per_commit", "count", false},
		{"stm.clones_per_commit", "count", false},
		{"stm.snapshot_share", "ratio", true},
		{"stm.snapshot_restarts_per_ktx", "count", false},
		{"stm.lock_failures_per_kcommit", "count", false},
		{"gc.alloc_bytes_per_op", "B", false},
		{"gc.allocs_per_op", "count", false},
		{"gc.cycles_per_s", "1/s", false},
		{"gc.pause_ms_per_s", "ms/s", false},
		{"trace.overhead_share", "ratio", false},
	}
	for _, c := range categories {
		d = append(d,
			metricDecl{"ops.body_ns_per_op.direct." + c, "ns", false},
			metricDecl{"ops.time_share." + c, "ratio", false},
			metricDecl{"core.reads_per_op." + c, "count", false},
			metricDecl{"core.writes_per_op." + c, "count", false})
	}
	return d
}()

// absent is the value of a per-layer metric that does not apply to a
// workload (a lock metric on an STM workload, a long-traversal metric on a
// workload without long traversals) or has nothing to divide by. It is not a
// number, so everything derived from it is absent too, and it never reaches a
// reader as a number: report.set turns it into metric.Absent.
var absent = math.NaN()

// metric is one value of a report. The result line must carry every declared
// metric as {"value", "unit"} with a number for a value, so there an absent
// metric reads 0 and is named on the "# absent:" line above it; the full
// report (-out) says "absent": true, and -repeat files leave it out.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Absent bool    `json:"absent,omitempty"`
}
