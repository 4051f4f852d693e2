package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/stm"
)

func baseOpts() Options {
	return Options{
		Params:          core.Tiny(),
		Threads:         2,
		MaxOps:          50,
		Workload:        ops.ReadWrite,
		LongTraversals:  true,
		StructureMods:   true,
		Strategy:        "coarse",
		CheckInvariants: true,
	}
}

func TestRunAllStrategies(t *testing.T) {
	for _, strat := range []string{"coarse", "medium", "ostm", "tl2", "direct"} {
		t.Run(strat, func(t *testing.T) {
			o := baseOpts()
			o.Strategy = strat
			if strat == "direct" {
				o.Threads = 1 // direct is single-threaded only
			}
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalAttempted() != int64(o.Threads*o.MaxOps) {
				t.Errorf("attempted = %d, want %d", res.TotalAttempted(), o.Threads*o.MaxOps)
			}
			if res.TotalSucceeded() == 0 {
				t.Error("nothing succeeded")
			}
			if res.Throughput() <= 0 {
				t.Error("throughput not positive")
			}
		})
	}
}

func TestRunDurationMode(t *testing.T) {
	o := baseOpts()
	o.MaxOps = 0
	o.Duration = 150 * time.Millisecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAttempted() == 0 {
		t.Error("duration mode ran nothing")
	}
	if res.Elapsed < o.Duration {
		t.Errorf("elapsed %v shorter than duration %v", res.Elapsed, o.Duration)
	}
}

func TestDefaults(t *testing.T) {
	o := Defaults(Options{})
	if o.Threads != 1 || o.Duration != time.Second || o.Strategy != "coarse" || o.Seed == 0 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.Params != core.Tiny() {
		t.Error("default params not tiny")
	}
}

func TestUnknownStrategyFails(t *testing.T) {
	o := baseOpts()
	o.Strategy = "hopeful"
	if _, err := Run(o); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestDisabledCategoriesRespected(t *testing.T) {
	o := baseOpts()
	o.LongTraversals = false
	o.StructureMods = false
	o.MaxOps = 200
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range res.PerOp {
		if op.Category == ops.LongTraversal || op.Category == ops.StructureModification {
			t.Errorf("disabled op %s present in results", name)
		}
	}
}

func TestReducedSetRespected(t *testing.T) {
	o := baseOpts()
	o.Reduced = true
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for name := range res.PerOp {
		if ops.ReducedExclusions[name] {
			t.Errorf("reduced run includes %s", name)
		}
		op, _ := ops.ByName(name)
		if op.Category == ops.LongTraversal {
			t.Errorf("reduced run includes long traversal %s", name)
		}
	}
}

func TestSampleErrorsSmallOnLongRun(t *testing.T) {
	o := baseOpts()
	o.Threads = 1
	o.MaxOps = 8000
	o.LongTraversals = false // keep it quick
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	_, totalE, totalF := res.SampleErrors()
	// With 8000 draws the attempted mix tracks the expected ratios; the
	// successful mix deviates by the failure rates, so E is looser.
	if totalF > 0.35 {
		t.Errorf("total F error = %v, want < 0.35", totalF)
	}
	if totalE > 0.8 {
		t.Errorf("total E error = %v, suspiciously large", totalE)
	}
}

func TestHistogramsCollected(t *testing.T) {
	res, err := Run(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, op := range res.PerOp {
		for _, n := range op.TTC.counts {
			total += n
		}
	}
	if total != res.TotalSucceeded() {
		t.Errorf("histogram mass %d != successes %d", total, res.TotalSucceeded())
	}
}

func TestByCategoryAggregation(t *testing.T) {
	o := baseOpts()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	cats := res.ByCategory()
	var sum int64
	for _, c := range cats {
		sum += c.Succeeded + c.Failed
	}
	if sum != res.TotalAttempted() {
		t.Errorf("category sum %d != attempted %d", sum, res.TotalAttempted())
	}
}

func TestReportSections(t *testing.T) {
	res, err := Run(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, res, true)
	out := sb.String()
	for _, section := range []string{
		"Benchmark parameters",
		"TTC histogram for",
		"Detailed results",
		"Sample errors",
		"Summary results",
		"total throughput:",
		"elapsed time:",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing %q", section)
		}
	}
}

// TestReportPercentileColumns: every run records its latencies, so the
// percentile columns are always printed; the histogram switch adds only
// the Appendix-A histogram lines, each op's ms keys rising and its counts
// summing to its successes.
func TestReportPercentileColumns(t *testing.T) {
	res, err := Run(baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, histograms := range []bool{false, true} {
		var sb strings.Builder
		WriteReport(&sb, res, histograms)
		out := sb.String()
		if !strings.Contains(out, "p99 [ms]") {
			t.Errorf("histograms=%v: report missing percentile columns", histograms)
		}
		if got := strings.Contains(out, "TTC histogram for"); got != histograms {
			t.Errorf("histograms=%v: histogram lines printed: %v", histograms, got)
		}
		for _, line := range strings.Split(out, "\n") {
			name, pairs, ok := strings.Cut(strings.TrimPrefix(line, "TTC histogram for "), ":")
			if !ok || !strings.HasPrefix(line, "TTC histogram for ") {
				continue
			}
			var sum, last int64 = 0, -1
			for _, pair := range strings.Fields(pairs) {
				var ms, n int64
				if _, err := fmt.Sscanf(pair, "%d,%d", &ms, &n); err != nil || ms <= last || n <= 0 {
					t.Errorf("%s: pair %q after key %d", name, pair, last)
				}
				sum, last = sum+n, ms
			}
			if sum != res.PerOp[name].Succeeded {
				t.Errorf("%s: histogram counts sum to %d, %d successes", name, sum, res.PerOp[name].Succeeded)
			}
		}
	}
}

func TestReportSTMStatsLine(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, res, false)
	if !strings.Contains(sb.String(), "stm: commits") {
		t.Error("STM run report missing engine stats line")
	}
}

func TestDeterministicMaxOpsRuns(t *testing.T) {
	// Single-threaded MaxOps runs with the same seed must produce the
	// same per-op counts.
	o := baseOpts()
	o.Threads = 1
	o.MaxOps = 300
	r1, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, op1 := range r1.PerOp {
		op2 := r2.PerOp[name]
		if op1.Succeeded != op2.Succeeded || op1.Failed != op2.Failed {
			t.Errorf("%s: (%d,%d) vs (%d,%d)", name, op1.Succeeded, op1.Failed, op2.Succeeded, op2.Failed)
		}
	}
}

func TestRunOnPrebuiltStructure(t *testing.T) {
	o := Defaults(baseOpts())
	ex, s, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(o, ex, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAttempted() == 0 {
		t.Error("no ops ran")
	}
}

// TestMetadataKnobsReachEngine: engine options (-g norec:retries=8, -g
// ostm:visible, which shapes per-Var metadata) flow from Options through
// sync7 into the engine, a key the engine ignores (tl2:cm=timid) is still
// echoed, and the run still completes with consistent results.
func TestMetadataKnobsReachEngine(t *testing.T) {
	for strat, knobs := range map[string]stm.EngineOptions{
		"norec": {MaxRetries: 8},
		"tl2":   {CM: stm.Timid{}},
		"ostm":  {VisibleReads: true},
	} {
		t.Run(strat, func(t *testing.T) {
			o := baseOpts()
			o.Strategy = strat
			o.Engine = knobs
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Options.Engine.String(); got != knobs.String() {
				t.Errorf("engine options = %q, want %q", got, knobs)
			}
			if res.TotalSucceeded() == 0 {
				t.Error("nothing succeeded under", knobs)
			}
		})
	}
	// Invalid values are rejected up front.
	o := baseOpts()
	o.Engine.MaxRetries = -1
	if _, err := Run(o); err == nil {
		t.Error("negative MaxRetries accepted")
	}
	o = baseOpts()
	o.Engine.TxDeadline = -time.Millisecond
	if _, err := Run(o); err == nil {
		t.Error("negative TxDeadline accepted")
	}
}

// TestSetupRejectsConfigurationBeforeBuilding: configuration errors come
// before any work. Each case pairs a bad option with Params that core.Build
// would reject, so the error names the option only if Setup got to it
// before the build.
func TestSetupRejectsConfigurationBeforeBuilding(t *testing.T) {
	unbuildable := core.Params{NumAssmLevels: 3} // Build: "NumAssmPerAssm must be >= 1"
	for _, c := range []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"engine-options", func(o *Options) { o.Strategy = "tl2"; o.Engine.MaxRetries = -1 }, "negative MaxRetries"},
		{"engine-options-on-a-lock-strategy", func(o *Options) { o.Engine.TxDeadline = -time.Millisecond }, "negative TxDeadline"},
		{"strategy-name", func(o *Options) { o.Strategy = "tl3" }, "unknown strategy"},
		{"driver-options", func(o *Options) { o.SkewTheta = 2 }, "SkewTheta"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := baseOpts()
			o.Params = unbuildable
			c.mut(&o)
			_, _, err := Setup(o)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Setup: err = %v, want one naming %q (reported before core.Build ran)", err, c.want)
			}
		})
	}
	o := baseOpts()
	o.Params = unbuildable
	if _, _, err := Setup(o); err == nil || !strings.Contains(err.Error(), "NumAssmPerAssm") {
		t.Errorf("control: valid options over unbuildable Params: err = %v, want core.Build's", err)
	}
}

// TestRunRejectsWhatItCannotRun: Run validates the mix and the driver
// before it runs anything. Weights whose mass lies on disabled categories
// would leave the operation picker empty (a panic inside a worker), and a
// negative weight, a closed-loop arrival rate or a negative thread count,
// duration or operation count would run a configuration other than the
// one asked for; each must come back as an error.
func TestRunRejectsWhatItCannotRun(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"weight-on-a-disabled-category", func(o *Options) {
			o.LongTraversals = false
			o.CategoryWeights = map[ops.Category]float64{ops.LongTraversal: 1}
		}, "positive share"},
		{"weight-on-a-reduced-away-category", func(o *Options) {
			o.Reduced = true
			o.CategoryWeights = map[ops.Category]float64{ops.LongTraversal: 1}
		}, "positive share"},
		{"zero-weights", func(o *Options) {
			o.CategoryWeights = map[ops.Category]float64{ops.ShortOperation: 0}
		}, "positive share"},
		{"negative-weight", func(o *Options) {
			o.CategoryWeights = map[ops.Category]float64{ops.ShortTraversal: 2, ops.ShortOperation: -1}
		}, "negative weight"},
		{"unknown-category", func(o *Options) {
			o.CategoryWeights = map[ops.Category]float64{ops.ShortOperation: 1, ops.Category(9): 1}
		}, "unknown category"},
		{"arrival-rate-on-a-closed-loop", func(o *Options) { o.ArrivalRate = 100 }, "closed-loop"},
		{"negative-threads", func(o *Options) { o.Threads = -3 }, "negative threads"},
		{"negative-duration", func(o *Options) { o.MaxOps, o.Duration = 0, -time.Second }, "negative duration"},
		{"negative-max-ops", func(o *Options) { o.MaxOps = -1 }, "negative max_ops"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := baseOpts()
			c.mut(&o)
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Run panicked: %v", r)
				}
			}()
			if _, err := Run(o); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Run: err = %v, want one naming %q", err, c.want)
			}
		})
	}
}
