// Package scenario runs declarative multi-phase workloads on top of the
// STMBench7 harness.
//
// The paper ships three static operation mixes (Table 2) driven by a
// closed loop. A Scenario generalizes that: it is a named sequence of
// Phases, each one harness run with its own harness.Options — the
// duration, the worker count, the workload split, the category mix
// weights, a zipfian contention-skew knob (a hotspot over composite parts,
// migratable between phases), and the driver itself: the paper's closed
// loop or an open-loop Poisson arrival process that measures response time
// with queueing delay included. All phases run back to back on ONE shared
// structure and engine, so later phases see the state earlier phases left
// behind; engine counters are reported per phase (harness.RunOn deltas
// them).
//
// Scenarios come from three places: the built-in library (Builtin,
// Names — chaos-storm, engine-sweep, hotspot-migration,
// read-burst-write-storm, smoke, spike), a small JSON file format
// (Parse, ParseFile; see the README's Scenarios chapter), or literal
// construction in Go. Run executes one and WriteReport formats the
// per-phase table plus a cross-phase comparison.
package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/stm"
)

// Phase is one segment of a scenario: a named harness run. Its Options
// hold only the per-phase settings (length, worker count, mix, skew and
// driver). The run-level fields (Params, Seed, Strategy, Engine,
// SampleInterval, CollectHistograms, CheckInvariants) come from the
// RunOptions and must stay zero. Threads == 0 inherits RunOptions.Threads,
// and exactly one of Duration and MaxOps must be positive: MaxOps runs an
// exact operation count, which makes phase scheduling deterministic.
type Phase struct {
	Name string
	harness.Options
}

// Scenario is a named, ordered sequence of phases over one structure.
//
// Engine is run-level: the engine is built with the executor, before the
// first phase runs, so unlike the per-phase workload fields it applies to
// the whole scenario. An unset key inherits whatever the RunOptions (i.e.
// the CLI's -g) selected; a key the scenario sets overrides the run, which
// is how a built-in like chaos-storm pins its fault plan.
type Scenario struct {
	Name        string
	Description string
	// Engine is an engine-spec option list ("retries=8",
	// "deadline=25ms,faults=seed=7,abort:1/24"; see stm.ParseEngineSpec)
	// applied over the run's engine options: a key set here overrides
	// the run's value, an unset key inherits it, and "serial=off" turns a
	// run-level serial off (stm.EngineOptions.Apply).
	Engine string
	Phases []Phase
}

// Validate checks what is specific to a scenario: a name, at least one
// phase, a well-formed engine overlay, and per phase a name, exactly one
// of a positive duration and max_ops, no negative thread count and no
// run-level field. Everything else is the phase's harness options, which
// harness.Options.Validate checks.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", sc.Name)
	}
	if _, err := (stm.EngineOptions{}).Apply(sc.Engine); err != nil {
		return fmt.Errorf("scenario %q: bad engine: %w", sc.Name, err)
	}
	for i, ph := range sc.Phases {
		if ph.Name == "" {
			return fmt.Errorf("scenario %q: phase %d has no name", sc.Name, i+1)
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario %q phase %q: %s", sc.Name, ph.Name, fmt.Sprintf(format, args...))
		}
		switch {
		case ph.Duration == 0 && ph.MaxOps == 0:
			return bad("needs a positive duration or max_ops")
		case ph.Duration > 0 && ph.MaxOps > 0:
			return bad("set exactly one of duration and max_ops")
		case ph.Params != (core.Params{}) || ph.Seed != 0 || ph.Strategy != "" ||
			ph.Engine != (stm.EngineOptions{}) || ph.SampleInterval != 0 ||
			ph.CollectHistograms || ph.CheckInvariants:
			return bad("sets a run-level option (Params, Seed, Strategy, Engine, SampleInterval, " +
				"CollectHistograms or CheckInvariants); those come from RunOptions and the scenario's engine")
		}
		if err := ph.Options.Validate(); err != nil {
			return bad("%v", err)
		}
	}
	return nil
}
