package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
)

// near reports whether got is a quantile read of want: never above it, and
// less than 1/subBuckets of it below.
func near(got, want time.Duration) bool {
	return got == want || got < want && float64(want-got) < float64(want)/subBuckets
}

// histogramOf records the durations into a fresh histogram.
func histogramOf(ds ...time.Duration) *Histogram {
	var h Histogram
	for _, d := range ds {
		h.Record(d)
	}
	return &h
}

// repeat returns n copies of d.
func repeat(d time.Duration, n int) []time.Duration { return slices.Repeat([]time.Duration{d}, n) }

// TestHistogramBuckets pins the bucket layout: every bucket's lower edge
// maps back to it, the duration below the next edge is still in it, the
// edges rise, and each bucket is narrower than 1/16 of its lower edge
// (exact, one ns wide, below 32 ns).
func TestHistogramBuckets(t *testing.T) {
	for b := 0; b < numBuckets-1; b++ {
		lo, next := lowerEdge(b), lowerEdge(b+1)
		if next <= lo || bucketOf(lo) != b || bucketOf(next-1) != b {
			t.Fatalf("bucket %d: edges %d..%d map to %d..%d", b, lo, next, bucketOf(lo), bucketOf(next-1))
		}
		if w := next - lo; w > 1 && float64(w) > float64(lo)/subBuckets {
			t.Fatalf("bucket %d at %d ns is %d ns wide, over 1/%d", b, lo, w, subBuckets)
		}
	}
	if top := time.Duration(1) << topBits; bucketOf(top) != numBuckets-1 || bucketOf(time.Duration(math.MaxInt64)) != numBuckets-1 {
		t.Errorf("durations from 2^%d ns do not share the last bucket", topBits)
	}
	if bucketOf(-time.Second) != 0 {
		t.Error("a negative duration is not filed as 0")
	}
}

// TestHistogramQuantiles records known durations from 0 ns through
// sub-µs, ms and s, plus one past the top bucket, and holds every
// nearest-rank quantile to the exact sorted one within the stated error.
// The duration past the top shares the last bucket: its rank reads that
// bucket's edge, and Max stays exact.
func TestHistogramQuantiles(t *testing.T) {
	past := time.Duration(1)<<topBits + time.Hour
	ds := []time.Duration{past}
	for _, d := range []time.Duration{0, 1, 7, 15, 16, 31, 32, 33, 100, 999, 1234,
		17 * time.Microsecond, 250 * time.Microsecond, 999999, time.Millisecond,
		1500 * time.Microsecond, 2*time.Millisecond + 345678, 17 * time.Millisecond,
		123456789, time.Second, 3*time.Second + 1, 90 * time.Second} {
		ds = append(ds, repeat(d, 1+int(d%5))...)
	}
	h := histogramOf(ds...)
	slices.Sort(ds)
	n := len(ds)
	if h.Count() != int64(n) || h.Max() != past {
		t.Fatalf("count %d max %v, want %d and %v", h.Count(), h.Max(), n, past)
	}
	for k := 1; k <= n; k++ {
		q := float64(k) / float64(n)
		exact := ds[int(math.Ceil(q*float64(n)))-1]
		got := h.Quantile(q)
		if exact == past {
			if got != lowerEdge(numBuckets-1) {
				t.Errorf("q=%.3f: %v past the top reads %v, want the last edge %v", q, exact, got, lowerEdge(numBuckets-1))
			}
			continue
		}
		if !near(got, exact) {
			t.Errorf("q=%.3f: got %v, exact %v (more than 1/%d off)", q, got, exact, subBuckets)
		}
	}
	if got := h.Quantile(1e-9); got != 0 {
		t.Errorf("smallest quantile %v, want the 0 ns sample", got)
	}
}

func TestSummarizeHistogramBasics(t *testing.T) {
	// 10 completions at 1ms, 80 at 2ms, 9 at 5ms, 1 at 100ms.
	ms := time.Millisecond
	h := histogramOf(slices.Concat(repeat(ms, 10), repeat(2*ms, 80), repeat(5*ms, 9), repeat(100*ms, 1))...)
	s, ok := h.Summary()
	if !ok || s.Count != 100 {
		t.Errorf("Count = %d (ok %v), want 100", s.Count, ok)
	}
	if want := (10*1 + 80*2 + 9*5 + 1*100) * ms / 100; s.Mean != want {
		t.Errorf("Mean = %v, want %v", s.Mean, want)
	}
	if !near(s.P50, 2*ms) {
		t.Errorf("P50 = %v, want 2ms", s.P50)
	}
	if !near(s.P90, 2*ms) {
		t.Errorf("P90 = %v, want 2ms (rank 90 falls in the 2ms mass)", s.P90)
	}
	if !near(s.P99, 5*ms) {
		t.Errorf("P99 = %v, want 5ms", s.P99)
	}
	if s.Max != 100*ms {
		t.Errorf("Max = %v, want 100ms exactly", s.Max)
	}
}

func TestSummarizeHistogramSingleBucket(t *testing.T) {
	s, ok := histogramOf(repeat(0, 42)...).Summary()
	if !ok || s.Count != 42 || s.Mean != 0 || s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Errorf("single-bucket summary wrong: %+v", s)
	}
}

func TestSummarizeHistogramEmpty(t *testing.T) {
	var h Histogram
	if s, ok := h.Summary(); ok || s.Count != 0 {
		t.Errorf("empty summary = %+v, ok %v", s, ok)
	}
	h.Merge(&Histogram{})
	if s, ok := h.Summary(); ok || s.Count != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty merge summary = %+v, ok %v", s, ok)
	}
}

func TestSummarizeHistogramSingleSample(t *testing.T) {
	// One completion: every percentile collapses to that sample's bucket,
	// and the mean and the max are the sample.
	s, ok := histogramOf(7 * time.Millisecond).Summary()
	if !ok || s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	if s.Mean != 7*time.Millisecond || s.Max != 7*time.Millisecond {
		t.Errorf("mean %v max %v, want 7ms", s.Mean, s.Max)
	}
	if s.P50 != s.P90 || s.P90 != s.P99 || !near(s.P99, 7*time.Millisecond) {
		t.Errorf("single-sample summary should collapse to the sample: %+v", s)
	}
}

// TestHistogramMergeCommutativity pins the merge algebra the category and
// overall summaries rely on: folding histograms in either order yields the
// same histogram, merging an empty one is the identity, and the merged
// count and max are exact.
func TestHistogramMergeCommutativity(t *testing.T) {
	a := histogramOf(0, 0, 0, 2*time.Millisecond, 9*time.Millisecond, 3*time.Microsecond)
	b := histogramOf(2*time.Millisecond, 5*time.Millisecond, 40*time.Millisecond, 41*time.Millisecond+17)
	ab, ba := *a, *b
	ab.Merge(b)
	ba.Merge(a)
	if ab != ba {
		t.Error("merge(a,b) != merge(b,a)")
	}
	id := *a
	id.Merge(&Histogram{})
	if id != *a {
		t.Error("merging an empty histogram changed it")
	}
	if ab.Count() != 10 || ab.Max() != 41*time.Millisecond+17 {
		t.Errorf("merged count %d max %v, want 10 and 41ms+17ns", ab.Count(), ab.Max())
	}
}

func TestPercentileMonotonicity(t *testing.T) {
	var h Histogram
	for i := range 50 {
		for range i + 1 {
			h.Record(time.Duration(i) * time.Millisecond)
		}
	}
	s, _ := h.Summary()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}

// TestAllocRecordOutcome: booking an outcome, success or logical failure,
// allocates nothing once the thread's record exists.
func TestAllocRecordOutcome(t *testing.T) {
	st := newThreadStats(1)[0]
	op := ops.All()[len(ops.All())-1]
	allocs := testing.AllocsPerRun(1000, func() {
		_ = st.recordOutcome(op, 1234*time.Microsecond, nil)
		_ = st.recordOutcome(op, 0, ops.ErrFailed)
	})
	if allocs != 0 {
		t.Errorf("recordOutcome allocates %v per call pair, want 0", allocs)
	}
	if rec := st.ops[op.Index]; rec.ttc.Count() != 1001 || rec.failed != 1001 {
		t.Errorf("recorded %d successes and %d failures, want 1001 each", rec.ttc.Count(), rec.failed)
	}
}

// TestResultLatency: each operation's record holds that operation's
// executions (counted apart by a wrapped executor), and its summary the
// exact count and max.
func TestResultLatency(t *testing.T) {
	o := baseOpts()
	ex, s, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	timed := &timedExecutor{Executor: ex, ok: map[string]int64{}}
	res, err := RunOn(o, timed, s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for name, op := range res.PerOp {
		if op.Succeeded != timed.ok[name] {
			t.Errorf("%s: %d successes recorded, executor counted %d", name, op.Succeeded, timed.ok[name])
		}
		if op.Succeeded == 0 {
			continue
		}
		s, ok := op.TTC.Summary()
		if !ok {
			t.Errorf("%s: no latency summary despite %d successes", name, op.Succeeded)
			continue
		}
		found = true
		if s.Count != op.Succeeded {
			t.Errorf("%s: summary count %d != successes %d", name, s.Count, op.Succeeded)
		}
		if s.Max != op.MaxTTC || s.P99 > s.Max {
			t.Errorf("%s: summary max %v, p99 %v; recorded MaxTTC %v", name, s.Max, s.P99, op.MaxTTC)
		}
	}
	if !found {
		t.Error("no operation had a latency summary")
	}
}

func TestCategoryLatency(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 200
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.ByCategory()[ops.ShortOperation].TTC.Summary()
	if !ok {
		t.Fatal("no category summary for short operations")
	}
	var want int64
	for _, op := range res.PerOp {
		if op.Category == ops.ShortOperation {
			want += op.Succeeded
		}
	}
	if s.Count != want {
		t.Errorf("category count = %d, want %d", s.Count, want)
	}
}

func TestCategoryLatencyTakesConcreteCategory(t *testing.T) {
	o := baseOpts()
	o.LongTraversals = false
	o.MaxOps = 200
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Every enabled category with successes summarizes; a disabled one
	// has no entry.
	cats := res.ByCategory()
	for _, cat := range []ops.Category{ops.ShortTraversal, ops.ShortOperation} {
		if c, ok := cats[cat]; !ok || c.TTC.Count() == 0 {
			t.Errorf("no summary for enabled category %v", cat)
		}
	}
	if _, ok := cats[ops.LongTraversal]; ok {
		t.Error("summary for disabled long-traversal category")
	}
	// Category histograms partition the run's closed-loop summary.
	overall, ok := res.RunLatency()
	if !ok {
		t.Fatal("no overall summary")
	}
	var sum int64
	for _, c := range cats {
		sum += c.TTC.Count()
	}
	if sum != overall.Count {
		t.Errorf("category counts sum to %d, overall %d", sum, overall.Count)
	}
}

// TestResponseLatencyUnitConversion: the open-loop response histogram is
// the TTC histogram type, in the same ns, and is an open-loop run's
// latency summary.
func TestResponseLatencyUnitConversion(t *testing.T) {
	// 100 responses at 500µs, 10 at 2500µs, 1 at 7200µs.
	us := time.Microsecond
	res := &Result{Options: Options{OpenLoop: true},
		Response: *histogramOf(slices.Concat(repeat(500*us, 100), repeat(2500*us, 10), repeat(7200*us, 1))...)}
	s, ok := res.RunLatency()
	if !ok {
		t.Fatal("no summary")
	}
	if s.Count != 111 {
		t.Errorf("count = %d", s.Count)
	}
	if !near(s.P50, 500*us) {
		t.Errorf("p50 = %v, want 500µs", s.P50)
	}
	if !near(s.P99, 2500*us) {
		t.Errorf("p99 = %v, want 2.5ms", s.P99)
	}
	if s.Max != 7200*us {
		t.Errorf("max = %v, want 7.2ms exactly", s.Max)
	}
	if _, ok := (&Result{Response: res.Response}).RunLatency(); ok {
		t.Error("a closed-loop result summarizes its response histogram")
	}
}

// timedExecutor counts the successes of each operation of the executor it
// wraps and times each successful long traversal at ns resolution, apart
// from the harness's own records.
type timedExecutor struct {
	sync7.Executor
	mu    sync.Mutex
	ok    map[string]int64
	times []time.Duration
}

func (e *timedExecutor) Execute(op *ops.Op, s *core.Structure, r *rng.Rand) (int, error) {
	t0 := time.Now()
	n, err := e.Executor.Execute(op, s, r)
	if d := time.Since(t0); err == nil {
		e.mu.Lock()
		e.ok[op.Name]++
		if op.Category == ops.LongTraversal {
			e.times = append(e.times, d)
		}
		e.mu.Unlock()
	}
	return n, err
}

// TestLongTraversalP99MatchesWrappedExecutor runs -size small -w r -g norec
// for a bounded op count with the executor wrapped, and holds the -json
// long-traversal p99 to the exact nearest-rank p99 of the wrapper's own
// timings, within the histogram's 1/16.
func TestLongTraversalP99MatchesWrappedExecutor(t *testing.T) {
	o := Options{Params: core.Small(), Threads: 1, MaxOps: 4000, Workload: ops.ReadDominated,
		LongTraversals: true, StructureMods: true, Strategy: "norec"}
	ex, s, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	timed := &timedExecutor{Executor: ex, ok: map[string]int64{}}
	res, err := RunOn(o, timed, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Categories []latencyRow }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	ts := timed.times
	if len(doc.Categories) == 0 || doc.Categories[0].Name != ops.LongTraversal.String() || doc.Categories[0].Succeeded != int64(len(ts)) {
		t.Fatalf("long-traversal row %+v, wrapper timed %d", doc.Categories, len(ts))
	}
	if len(ts) < 100 {
		t.Fatalf("only %d long traversals: a p99 needs more", len(ts))
	}
	slices.Sort(ts)
	exact := ts[int(math.Ceil(0.99*float64(len(ts))))-1]
	got := doc.Categories[0].P99
	if diff := (got - exact).Abs(); float64(diff) >= float64(exact)/subBuckets {
		t.Errorf("-json long-traversal p99 %v, wrapped executor %v over %d traversals: off by more than 1/%d",
			got, exact, len(ts), subBuckets)
	}
}
