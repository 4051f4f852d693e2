package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sync7"
	"repro/stm"
)

// TestRunWithSampler pins the harness-side sampler wiring: a run with
// SampleInterval set yields a Series whose per-interval op deltas sum to
// exactly the run's successful total (the live counter, the baseline
// subtraction and the Stop tail sample together drop nothing).
func TestRunWithSampler(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	o.MaxOps = 200
	o.SampleInterval = time.Millisecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("SampleInterval set but Result.Series is empty")
	}
	var ops int64
	var commits uint64
	for _, p := range res.Series {
		ops += p.Ops
		commits += p.Commits
	}
	if ops != res.TotalSucceeded() {
		t.Errorf("series op deltas sum to %d, run succeeded %d", ops, res.TotalSucceeded())
	}
	if commits != res.EngineStats.Commits {
		t.Errorf("series commit deltas sum to %d, run's engine delta is %d", commits, res.EngineStats.Commits)
	}

	// Sampling off stays off.
	o.SampleInterval = 0
	res, err = Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Errorf("SampleInterval 0 still produced %d series points", len(res.Series))
	}
}

func TestNegativeSampleIntervalRejected(t *testing.T) {
	o := baseOpts()
	o.SampleInterval = -time.Millisecond
	if _, err := Run(o); err == nil {
		t.Error("negative SampleInterval accepted")
	}
}

// TestRunWithTraceRecorder checks the -trace plumbing end to end for every
// STM strategy: a recorder handed to the harness reaches the engine's
// probe sites and captures the run's transactions. (ostm takes a dedicated
// sync7 factory, so the loop guards all three plumbing paths.)
func TestRunWithTraceRecorder(t *testing.T) {
	for _, strat := range sync7.STMStrategies() {
		t.Run(strat, func(t *testing.T) {
			// Default capacity: ostm notes a validation event per open
			// var, so a small ring would overwrite early commits and
			// break the accounting check below.
			rec := stm.NewTraceRecorder(0)
			o := baseOpts()
			o.Strategy = strat
			o.Engine.Trace = rec
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			events := rec.Events()
			if len(events) == 0 {
				t.Fatal("trace recorder captured nothing")
			}
			var begins, commits uint64
			for _, ev := range events {
				switch ev.Kind {
				case stm.TraceBegin:
					begins++
				case stm.TraceCommit:
					commits++
				}
			}
			if begins == 0 || commits == 0 {
				t.Errorf("trace has %d begins, %d commits; want both > 0", begins, commits)
			}
			// The recorder also observes transactions outside the measured
			// window (the structure build, the post-run invariant check), so
			// it can only have MORE commits than the run's engine-stat delta —
			// unless the ring wrapped and overwrote early events.
			if rec.Dropped() == 0 && commits < res.EngineStats.Commits {
				t.Errorf("trace has %d commits, engine delta counted %d", commits, res.EngineStats.Commits)
			}
		})
	}
}

// TestReportHeaderEchoesEnvironment pins satellite coverage for the report
// header: every run names its seed, GOMAXPROCS and — as one engine spec —
// the configuration the executor was built with.
func TestReportHeaderEchoesEnvironment(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	o.Engine.ClockShards = 4
	o.Engine.Versions = 2
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, res)
	out := sb.String()
	for _, want := range []string{
		"seed:",
		"gomaxprocs:",
		"engine:               tl2:shards=4,versions=2\n",
		"abort causes:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
}
