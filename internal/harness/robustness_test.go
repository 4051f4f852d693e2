package harness

import (
	"strings"
	"testing"
	"time"

	"repro/stm"
)

// TestRobustnessKnobsReachEngine: deadline=/serial/faults= (Options.Engine)
// flow from Options through sync7 into the engines, for every STM
// strategy, and the run still completes with consistent results.
func TestRobustnessKnobsReachEngine(t *testing.T) {
	plan, err := stm.ParseFaultPlan("seed=9,abort:1/5,precommit:1/7:5µs")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"tl2", "norec", "ostm"} {
		t.Run(strat, func(t *testing.T) {
			o := baseOpts()
			o.Strategy = strat
			o.Engine.TxDeadline = 5 * time.Second // generous: must not trip
			o.Engine.SerialFallback = true
			o.Engine.Faults = plan
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSucceeded() == 0 {
				t.Error("nothing succeeded under the fault plan")
			}
			if res.EngineStats.InjectedFaults == 0 {
				t.Error("InjectedFaults = 0: the plan never reached the engine")
			}
			// Serial fallback guarantees no op is lost to an abort: every
			// failure must be a logical one (ops.ErrFailed), never
			// retry-budget exhaustion. The operation mix includes ops
			// that fail logically, so compare against a fallback-free
			// run of the same workload: identical failure counts mean no
			// abort-induced failures.
			if res.EngineStats.SerialFallbacks == 0 {
				t.Log("note: no escalations fired (retry budget absorbed all injected aborts)")
			}
		})
	}
}

// TestSerialFallbackAbsorbsAborts pins the acceptance criterion at the
// harness level: under a kill-every-commit plan, fallback off (bounded
// by a deadline so the run terminates) reports timeout-aborted
// operations as failures, while fallback on completes the same workload
// with zero timeout aborts and strictly more successes.
func TestSerialFallbackAbsorbsAborts(t *testing.T) {
	plan, err := stm.ParseFaultPlan("abort:1/1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(fallback bool) *Result {
		o := baseOpts()
		o.Strategy = "tl2"
		o.CheckInvariants = false // aborted SMs leave ops unapplied, not broken
		o.MaxOps = 30
		o.Engine.Faults = plan
		o.Engine.TxDeadline = 5 * time.Millisecond // bounds the off-run's doomed retries
		o.Engine.SerialFallback = fallback
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.EngineStats.TimeoutAborts == 0 {
		t.Error("fallback off: no timeout aborts under kill-every-commit plan")
	}
	if off.EngineStats.SerialFallbacks != 0 {
		t.Error("fallback off: escalations recorded")
	}
	if on.EngineStats.SerialFallbacks == 0 {
		t.Error("fallback on: no escalations under kill-every-commit plan")
	}
	if on.EngineStats.TimeoutAborts != 0 {
		t.Errorf("fallback on: %d timeout aborts leaked past the serial token", on.EngineStats.TimeoutAborts)
	}
	if on.TotalSucceeded() <= off.TotalSucceeded() {
		t.Errorf("fallback on succeeded %d <= off %d", on.TotalSucceeded(), off.TotalSucceeded())
	}
}

// TestRobustnessValidation mirrors TestOpenLoopValidation for the new
// knobs: malformed values are rejected before any work runs.
func TestRobustnessValidation(t *testing.T) {
	o := baseOpts()
	o.Engine.TxDeadline = -time.Second
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "TxDeadline") {
		t.Errorf("negative TxDeadline: err = %v", err)
	}
	o = baseOpts()
	o.ShedAfter = -time.Millisecond
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "ShedAfter") {
		t.Errorf("negative ShedAfter: err = %v", err)
	}
	o = baseOpts()
	o.QueueBound = -1
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "QueueBound") {
		t.Errorf("negative QueueBound: err = %v", err)
	}
	// Shedding knobs without the open-loop driver are a contradiction.
	o = baseOpts()
	o.ShedAfter = time.Millisecond
	if _, err := Run(o); err == nil {
		t.Error("ShedAfter without OpenLoop accepted")
	}
	o = baseOpts()
	o.QueueBound = 10
	if _, err := Run(o); err == nil {
		t.Error("QueueBound without OpenLoop accepted")
	}
}

// burstOps and burstRate make an open-loop burst no host drains: 20 000
// arrivals all due within 20 µs. Serving them inside a 500 µs lateness
// budget would take 25 ns an operation, harness included. (500 arrivals at
// 2 M/s, the burst these tests had, drained inside the budget on a fast
// host whenever the short ops ran under about 1.5 µs.)
const (
	burstOps  = 20_000
	burstRate = 1e9
)

// TestOpenLoopShedding: a single worker offered an instantaneous burst
// far beyond its service capacity must shed most of it under a tight
// lateness budget — and the books must balance:
// Arrivals == TotalAttempted + ShedOps.
func TestOpenLoopShedding(t *testing.T) {
	o := baseOpts()
	o.Threads = 1
	o.MaxOps = burstOps
	o.LongTraversals = false
	o.StructureMods = false
	o.CheckInvariants = false
	o.OpenLoop = true
	o.ArrivalRate = burstRate
	o.ShedAfter = 500 * time.Microsecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedOps == 0 {
		t.Fatalf("no ops shed under an instantaneous %d-op burst with a 500µs budget", burstOps)
	}
	if res.Arrivals != res.TotalAttempted()+res.ShedOps {
		t.Errorf("Arrivals %d != attempted %d + shed %d", res.Arrivals, res.TotalAttempted(), res.ShedOps)
	}
	if res.ShedRate() <= 0 || res.ShedRate() > 1 {
		t.Errorf("ShedRate = %v outside (0, 1]", res.ShedRate())
	}
}

// TestOpenLoopQueueBound: same burst, shed on backlog depth instead of
// lateness.
func TestOpenLoopQueueBound(t *testing.T) {
	o := baseOpts()
	o.Threads = 1
	o.MaxOps = burstOps
	o.LongTraversals = false
	o.StructureMods = false
	o.CheckInvariants = false
	o.OpenLoop = true
	o.ArrivalRate = burstRate
	o.QueueBound = 8
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedOps == 0 {
		t.Fatalf("no ops shed with an 8-deep queue bound under a %d-op burst", burstOps)
	}
	if res.Arrivals != res.TotalAttempted()+res.ShedOps {
		t.Errorf("Arrivals %d != attempted %d + shed %d", res.Arrivals, res.TotalAttempted(), res.ShedOps)
	}
}

// TestShedUnderCapacityIsZero: shedding configured but the system keeps
// up — nothing may be shed.
func TestShedUnderCapacityIsZero(t *testing.T) {
	o := baseOpts()
	o.Threads = 2
	o.MaxOps = 25
	o.LongTraversals = false
	o.StructureMods = false
	o.CheckInvariants = false
	o.OpenLoop = true
	o.ArrivalRate = 200 // far below capacity
	o.ShedAfter = 100 * time.Millisecond
	o.QueueBound = 1024
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedOps != 0 {
		t.Errorf("ShedOps = %d under light load, want 0", res.ShedOps)
	}
}
