package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// RunOptions configures one scenario execution. The embedded harness
// Options carry the run-level settings, and harness.Defaults fills their
// zero values (tiny structure, coarse strategy, seed 42, one worker):
//
//   - Params, Seed and Strategy: the shared structure, the seed the build,
//     the phase seeds and every arrival schedule derive from, and the
//     strategy every phase runs under. Scenarios are strategy-agnostic by
//     design: run the same scenario per engine to compare them.
//   - Engine: built once, before the first phase; the scenario's own
//     "engine" keys are applied over it. Engine.Trace is the run's flight
//     recorder: one recorder observes every phase.
//   - Threads: the worker count of phases that set none.
//   - SampleInterval: applied to every phase; each PhaseResult's
//     Result.Series carries that phase's curve.
//   - CheckInvariants: verifies the full structural invariants once,
//     after the final phase.
//
// The per-phase fields (Duration, MaxOps, Workload, the mix, skew and
// driver settings) belong to the phases and are ignored here.
type RunOptions struct {
	harness.Options
	// TimeScale multiplies every phase duration (<= 0 -> 1). CI smoke
	// and tests use small values to shrink a scenario without changing
	// its shape; MaxOps phases and arrival rates are unaffected.
	TimeScale float64
}

// PhaseResult pairs a resolved phase (run-level fields and defaults
// applied, durations scaled) with its measurement.
type PhaseResult struct {
	Phase  Phase
	Result *harness.Result
}

// Report is a completed scenario run.
type Report struct {
	Scenario *Scenario
	Strategy string
	Params   core.Params
	Seed     uint64
	Phases   []PhaseResult
	Elapsed  time.Duration
}

// minPhaseDuration floors scaled durations so an aggressive TimeScale
// still runs every phase (harness.Defaults would turn 0 into a full
// second).
const minPhaseDuration = time.Millisecond

// phaseSeed derives a distinct deterministic seed per phase index.
func phaseSeed(seed uint64, i int) uint64 {
	return seed + uint64(i+1)*0x9e3779b97f4a7c15
}

// Run executes the scenario: it builds the structure and executor once,
// then runs the phases back to back, each as one harness run with its own
// mix, skew, driver and seed. Phase boundaries are full barriers (all
// workers of a phase join before the next phase starts) and engine
// counters reset per phase (harness.RunOn reports deltas).
func Run(sc *Scenario, o RunOptions) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	run := harness.Defaults(o.Options)
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}

	// The scenario's run-level keys override the run's: a scenario built
	// around an engine setting (chaos-storm's fault plan) must get that
	// setting regardless of the CLI defaults.
	engine, err := run.Engine.Apply(sc.Engine)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: bad engine: %w", sc.Name, err)
	}

	ex, s, err := harness.Setup(harness.Options{
		Params:   run.Params,
		Seed:     run.Seed,
		Threads:  run.Threads,
		Strategy: run.Strategy,
		Engine:   engine,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	rep := &Report{Scenario: sc, Strategy: run.Strategy, Params: run.Params, Seed: run.Seed}
	start := time.Now()
	for i, ph := range sc.Phases {
		if ph.Threads == 0 {
			ph.Threads = run.Threads
		}
		if ph.Duration > 0 {
			ph.Duration = max(time.Duration(float64(ph.Duration)*o.TimeScale), minPhaseDuration)
		}
		ph.Params, ph.Seed = run.Params, phaseSeed(run.Seed, i)
		// What the executor was built with at Setup: the phase's Result
		// names the configuration that actually ran.
		ph.Strategy, ph.Engine = run.Strategy, engine
		ph.SampleInterval = run.SampleInterval
		ph.CheckInvariants = run.CheckInvariants && i == len(sc.Phases)-1
		res, err := harness.RunOn(ph.Options, ex, s)
		if err != nil {
			return nil, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
		}
		rep.Phases = append(rep.Phases, PhaseResult{Phase: ph, Result: res})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
