package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/stm"
)

// RunOptions configures one scenario execution. Zero values get the same
// defaults as the harness: tiny structure, coarse strategy, seed 42, one
// worker.
type RunOptions struct {
	// Params sizes the shared structure (zero value -> tiny).
	Params core.Params
	// Strategy is the synchronization strategy every phase runs under
	// ("" -> coarse). Scenarios are strategy-agnostic by design: run
	// the same scenario per engine to compare them.
	Strategy string
	// Seed makes the build, the phase seeds and every arrival schedule
	// deterministic (0 -> 42).
	Seed uint64
	// Threads is the default worker count for phases that do not set
	// their own (<= 0 -> 1).
	Threads int
	// TimeScale multiplies every phase duration (<= 0 -> 1). CI smoke
	// and tests use small values to shrink a scenario without changing
	// its shape; MaxOps phases and arrival rates are unaffected.
	TimeScale float64
	// CollectHistograms enables per-op TTC histograms in every phase.
	CollectHistograms bool
	// CheckInvariants verifies the full structural invariants once,
	// after the final phase.
	CheckInvariants bool
	// Engine configures the stm engine behind an STM strategy exactly
	// like the harness option of the same name (with Strategy, the two
	// halves of the -g spec). Run-level: the engine is built before the
	// first phase; a scenario's own "engine" keys are applied over it.
	// Engine.Trace is the run's flight recorder: one recorder observes
	// every phase (use its Reset between scrapes to window it).
	Engine stm.EngineOptions
	// SampleInterval runs the telemetry sampler in every phase at the
	// given cadence, exactly like the harness option of the same name;
	// each PhaseResult's Result.Series carries that phase's curve.
	SampleInterval time.Duration
	// OnEngine, when set, is called once with the run's engine after the
	// executor is built and before the first phase starts — the hook a
	// live telemetry endpoint uses to start scraping Stats mid-run.
	OnEngine func(stm.Engine)
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
	if o.Params == (core.Params{}) {
		o.Params = core.Tiny()
	}
	if o.Strategy == "" {
		o.Strategy = "coarse"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1
	}

	// The scenario's run-level keys override the run's: a scenario built
	// around an engine setting (chaos-storm's fault plan) must get that
	// setting regardless of the CLI defaults.
	engine, err := o.Engine.Apply(sc.Engine)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: bad engine: %w", sc.Name, err)
	}

	ex, s, err := harness.Setup(harness.Options{
		Params:   o.Params,
		Seed:     o.Seed,
		Strategy: o.Strategy,
		Engine:   engine,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if o.OnEngine != nil {
		o.OnEngine(ex.Engine())
	}

	rep := &Report{Scenario: sc, Strategy: o.Strategy, Params: o.Params, Seed: o.Seed}
	start := time.Now()
	for i, ph := range sc.Phases {
		if ph.Threads <= 0 {
			ph.Threads = o.Threads
		}
		if ph.Duration > 0 {
			ph.Duration = max(time.Duration(float64(ph.Duration)*o.TimeScale), minPhaseDuration)
		}
		ph.Params, ph.Seed = o.Params, phaseSeed(o.Seed, i)
		// What the executor was built with at Setup: the phase's Result
		// names the configuration that actually ran.
		ph.Strategy, ph.Engine = o.Strategy, engine
		ph.SampleInterval, ph.CollectHistograms = o.SampleInterval, o.CollectHistograms
		ph.CheckInvariants = o.CheckInvariants && i == len(sc.Phases)-1
		res, err := harness.RunOn(ph.Options, ex, s)
		if err != nil {
			return nil, fmt.Errorf("scenario %q phase %q: %w", sc.Name, ph.Name, err)
		}
		rep.Phases = append(rep.Phases, PhaseResult{Phase: ph, Result: res})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
