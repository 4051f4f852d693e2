package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
)

func TestOpenLoopRunsAndMeasures(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 0
	o.Duration = 150 * time.Millisecond
	o.LongTraversals = false
	o.OpenLoop = true
	o.ArrivalRate = 3000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 {
		t.Fatal("no arrivals issued")
	}
	if res.Arrivals != res.TotalAttempted() {
		t.Errorf("arrivals %d != attempted %d (every issued arrival must execute once)",
			res.Arrivals, res.TotalAttempted())
	}
	ls, ok := res.Response.Summary()
	if !ok {
		t.Fatal("open-loop run without response summary")
	}
	if ls.Count != res.Arrivals {
		t.Errorf("response histogram mass %d != arrivals %d", ls.Count, res.Arrivals)
	}
	if ls.P99 < ls.P50 || ls.P50 < 0 {
		t.Errorf("implausible percentiles: p50 %v, p99 %v", ls.P50, ls.P99)
	}
}

func TestOpenLoopMaxOpsDeterministic(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 100
	o.Threads = 2
	o.OpenLoop = true
	o.ArrivalRate = 50000 // tight schedule; the run is compute-bound
	run := func() *Result {
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalAttempted() != 200 || a.Arrivals != 200 {
		t.Fatalf("attempted %d / arrivals %d, want 200", a.TotalAttempted(), a.Arrivals)
	}
	for name, opA := range a.PerOp {
		opB := b.PerOp[name]
		if opB == nil || opA.Attempted() != opB.Attempted() {
			t.Errorf("%s: attempts differ between identical open-loop runs", name)
		}
	}
}

func TestOpenLoopQueueingCharged(t *testing.T) {
	// One worker, arrivals far faster than service: the worker falls
	// behind and late arrivals must be charged their queueing delay, so
	// p99 response far exceeds p99 service time (TTC).
	o := baseOpts()
	o.Threads = 1
	o.MaxOps = 400
	o.LongTraversals = false
	o.OpenLoop = true
	o.ArrivalRate = 2_000_000 // effectively "all due at once"
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	resp, ok := res.Response.Summary()
	if !ok {
		t.Fatal("no response summary")
	}
	// 400 queued ops served sequentially: the last waits for the sum of
	// all service times, so mean response must exceed max single TTC.
	var maxTTC time.Duration
	for _, op := range res.PerOp {
		if op.MaxTTC > maxTTC {
			maxTTC = op.MaxTTC
		}
	}
	if resp.P99 <= maxTTC {
		t.Errorf("p99 response %v <= max service time %v: queueing not charged",
			resp.P99, maxTTC)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	o := baseOpts()
	o.OpenLoop = true // no ArrivalRate
	if _, err := Run(o); err == nil {
		t.Error("open loop without rate accepted")
	}
	o = baseOpts()
	o.SkewTheta = 1.5
	if _, err := Run(o); err == nil {
		t.Error("skew >= 1 accepted")
	}
	o = baseOpts()
	o.SkewShift = -0.1
	if _, err := Run(o); err == nil {
		t.Error("negative shift accepted")
	}
}

func TestSkewedRunCompletes(t *testing.T) {
	// The full mix (including SMs that create and delete parts) must run
	// under a heavily skewed hotspot and leave a consistent structure,
	// and the samplers must be uninstalled afterwards.
	o := baseOpts()
	o.MaxOps = 300
	o.SkewTheta = 0.95
	o.SkewShift = 0.5
	o.CheckInvariants = true
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAttempted() != int64(o.Threads*o.MaxOps) {
		t.Errorf("attempted %d, want %d", res.TotalAttempted(), o.Threads*o.MaxOps)
	}
}

func TestCategoryWeightsRestrictMix(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 200
	o.CategoryWeights = map[ops.Category]float64{ops.ShortOperation: 1}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range res.PerOp {
		if op.Category != ops.ShortOperation {
			t.Errorf("zero-weight op %s present in results", name)
		}
	}
	total := 0.0
	for _, ratio := range res.Expected {
		total += ratio
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("weighted expected ratios sum to %v", total)
	}
}

func TestEngineStatsAreDeltas(t *testing.T) {
	o := Defaults(baseOpts())
	o.Strategy = "tl2"
	ex, s, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunOn(o, ex, s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunOn(o, ex, s)
	if err != nil {
		t.Fatal(err)
	}
	// Same work on the same executor: the second run's counters must be
	// in the same ballpark as the first, not cumulative (~2x).
	if r1.EngineStats.Commits == 0 {
		t.Fatal("no commits recorded")
	}
	if r2.EngineStats.Commits > r1.EngineStats.Commits*3/2 {
		t.Errorf("second run reports %d commits vs first %d — looks cumulative",
			r2.EngineStats.Commits, r1.EngineStats.Commits)
	}
}

func TestOpenLoopScheduleCapped(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 0
	o.Duration = time.Hour
	o.OpenLoop = true
	o.ArrivalRate = 1e6
	_, err := Run(o)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized schedule accepted: %v", err)
	}
}
