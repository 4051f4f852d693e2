package harness

import (
	"math"
	"math/bits"
	"time"
)

// The latency histogram is log-linear, the HdrHistogram layout: below
// 2*subBuckets ns there is one bucket per nanosecond, and every
// power-of-two range [2^e, 2^(e+1)) above that is split into subBuckets
// linear buckets of width 2^(e-subBits). So each bucket's lower edge is
// less than 1/subBuckets below every value the bucket holds, which bounds
// how far a quantile read as a lower edge is below the exact one.
const (
	subBits    = 4
	subBuckets = 1 << subBits
	// topBits: durations of 2^topBits ns (about 18 minutes) and more share
	// the last bucket; Max stays exact.
	topBits    = 40
	numBuckets = (topBits - subBits + 1) << subBits
)

// bucketOf returns the bucket holding d.
func bucketOf(d time.Duration) int {
	ns := uint64(max(d, 0))
	shift := max(bits.Len64(ns)-subBits-1, 0)
	return min(shift<<subBits+int(ns>>shift), numBuckets-1)
}

// lowerEdge returns the smallest duration bucket b holds.
func lowerEdge(b int) time.Duration {
	shift := max(b>>subBits-1, 0)
	return time.Duration(b-shift<<subBits) << shift
}

// Histogram is a fixed log-linear histogram of durations: a flat array of
// nanosecond bucket counts beside the exact count, sum and max. Recording
// allocates nothing, and the zero value is an empty histogram. One type
// holds each operation's time to completion, the category and run-wide
// merges of those, and the open-loop response time.
type Histogram struct {
	counts [numBuckets]int64
	n      int64
	sum    time.Duration
	max    time.Duration
}

// Record adds one duration.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	h.max = max(h.max, d)
}

// Merge adds every duration o holds.
func (h *Histogram) Merge(o *Histogram) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Count returns the number of durations recorded.
func (h *Histogram) Count() int64 { return h.n }

// Max returns the largest duration recorded, exactly.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the nearest-rank q-quantile, 0 < q <= 1: the lower edge
// of the bucket holding the ceil(q*Count)-th smallest duration. It is never
// above that duration and less than 1/16 of it below. 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for b, c := range h.counts {
		if seen += c; seen >= rank {
			return lowerEdge(b)
		}
	}
	return 0
}

// LatencySummary condenses a Histogram. Count, Mean and Max are exact; the
// percentiles are Quantile's, less than 1/16 below the exact nearest-rank
// values. Durations encode as integer nanoseconds.
type LatencySummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Summary condenses the histogram; ok is false when it is empty.
func (h *Histogram) Summary() (s LatencySummary, ok bool) {
	if h.n == 0 {
		return LatencySummary{}, false
	}
	return LatencySummary{
		Count: h.n,
		Mean:  h.sum / time.Duration(h.n),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.max,
	}, true
}

// RunLatency is the run's one latency summary: for an open-loop run the
// response time (Result.Response, queueing included), for a closed-loop
// one every operation's TTC histogram merged, the service time across the
// whole mix. ok is false when the run completed nothing.
func (r *Result) RunLatency() (LatencySummary, bool) {
	if r.Options.OpenLoop {
		return r.Response.Summary()
	}
	var h Histogram
	for _, op := range r.PerOp {
		h.Merge(&op.TTC)
	}
	return h.Summary()
}
