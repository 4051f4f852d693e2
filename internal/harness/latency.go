package harness

import (
	"sort"
	"time"

	"repro/internal/ops"
)

// LatencySummary condenses an operation's TTC histogram. The paper's output
// is the raw histogram (Appendix A); the summary derives the quantities one
// actually reads off those plots. All values are in milliseconds, at the
// histogram's millisecond resolution (sub-millisecond completions land in
// bucket 0).
type LatencySummary struct {
	// Count is the number of successful completions recorded.
	Count int64
	// MeanMs is the histogram-weighted mean TTC.
	MeanMs float64
	// P50Ms, P90Ms, P99Ms are inclusive percentiles over the histogram.
	P50Ms float64
	P90Ms float64
	P99Ms float64
	// MaxMs is the largest bucket with mass (<= Result.MaxTTC, which has
	// nanosecond resolution).
	MaxMs int64
}

// Latency summarizes the named operation's TTC histogram. ok is false when
// the run collected no histogram for the operation (CollectHistograms off,
// operation disabled, or zero successes).
func (r *Result) Latency(opName string) (LatencySummary, bool) {
	op, present := r.PerOp[opName]
	if !present || len(op.Hist) == 0 {
		return LatencySummary{}, false
	}
	return summarizeHistogram(op.Hist), true
}

// summarizeHistogram computes the summary for one ms-bucketed histogram.
func summarizeHistogram(hist map[int64]int64) LatencySummary {
	buckets := make([]int64, 0, len(hist))
	var count int64
	var sum float64
	for ms, n := range hist {
		if n <= 0 {
			continue
		}
		buckets = append(buckets, ms)
		count += n
		sum += float64(ms) * float64(n)
	}
	if count == 0 {
		return LatencySummary{}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })

	percentile := func(p float64) float64 {
		// Inclusive nearest-rank percentile over bucket mass.
		rank := int64(p*float64(count-1)) + 1
		var seen int64
		for _, ms := range buckets {
			seen += hist[ms]
			if seen >= rank {
				return float64(ms)
			}
		}
		return float64(buckets[len(buckets)-1])
	}
	return LatencySummary{
		Count:  count,
		MeanMs: sum / float64(count),
		P50Ms:  percentile(0.50),
		P90Ms:  percentile(0.90),
		P99Ms:  percentile(0.99),
		MaxMs:  buckets[len(buckets)-1],
	}
}

// CategoryLatency merges the histograms of every operation in a category
// and summarizes the result (e.g. "all short traversals").
func (r *Result) CategoryLatency(cat ops.Category) (LatencySummary, bool) {
	merged := map[int64]int64{}
	for _, op := range r.PerOp {
		if op.Category != cat || len(op.Hist) == 0 {
			continue
		}
		for ms, n := range op.Hist {
			merged[ms] += n
		}
	}
	if len(merged) == 0 {
		return LatencySummary{}, false
	}
	return summarizeHistogram(merged), true
}

// OverallLatency merges every operation's TTC histogram into one summary —
// the run's service-time distribution across the whole mix. ok is false
// when the run collected no histograms (CollectHistograms off).
func (r *Result) OverallLatency() (LatencySummary, bool) {
	merged := map[int64]int64{}
	for _, op := range r.PerOp {
		for ms, n := range op.Hist {
			merged[ms] += n
		}
	}
	if len(merged) == 0 {
		return LatencySummary{}, false
	}
	return summarizeHistogram(merged), true
}

// ResponseLatency summarizes an open-loop run's response-time histogram:
// completion minus *scheduled* arrival, so an operation that waited behind
// a busy worker is charged its queueing delay — the coordinated-omission-
// safe quantity a closed loop cannot measure. Result.Response buckets are
// microseconds; the summary is converted to the usual milliseconds (MaxMs
// rounds up, so ApproxMax stays an upper bound). ok is false for
// closed-loop runs.
func (r *Result) ResponseLatency() (LatencySummary, bool) {
	if len(r.Response) == 0 {
		return LatencySummary{}, false
	}
	s := summarizeHistogram(r.Response) // values in µs buckets
	s.MeanMs /= 1000
	s.P50Ms /= 1000
	s.P90Ms /= 1000
	s.P99Ms /= 1000
	s.MaxMs = (s.MaxMs + 999) / 1000
	return s, true
}

// RunLatency is the run's one latency summary: response time for an
// open-loop run (queueing included), the merged TTC histogram for a
// closed-loop one. ok is false when neither was recorded.
func (r *Result) RunLatency() (LatencySummary, bool) {
	if r.Options.OpenLoop {
		return r.ResponseLatency()
	}
	return r.OverallLatency()
}

// ApproxMax returns the summary max as a duration (millisecond resolution).
func (s LatencySummary) ApproxMax() time.Duration {
	return time.Duration(s.MaxMs) * time.Millisecond
}
