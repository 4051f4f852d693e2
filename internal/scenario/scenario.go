// Package scenario runs declarative multi-phase workloads on top of the
// STMBench7 harness.
//
// The paper ships three static operation mixes (Table 2) driven by a
// closed loop. A Scenario generalizes that: it is a named sequence of
// Phases, each of which may override the duration, the worker count, the
// workload split, the category mix weights, a zipfian contention-skew
// knob (a hotspot over composite parts, migratable between phases), and
// the driver itself — the paper's closed loop or an open-loop Poisson
// arrival process that measures response time with queueing delay
// included. All phases run back to back on ONE shared structure and
// engine, so later phases see the state earlier phases left behind;
// engine counters are reported per phase (harness.RunOn deltas them).
//
// Scenarios come from three places: the built-in library (Builtin,
// Names — steady, ramp-up, spike, read-burst-write-storm,
// hotspot-migration, engine-sweep, smoke), a small JSON file format
// (Parse, ParseFile; see the README's Scenarios chapter), or literal
// construction in Go. Run executes one and WriteReport formats the
// per-phase table plus a cross-phase comparison.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/ops"
	"repro/stm"
)

// Phase is one segment of a scenario. The zero value of most fields means
// "off"; Threads == 0 inherits the run's default worker count.
type Phase struct {
	// Name labels the phase in reports ("warmup", "spike", ...).
	Name string
	// Duration is the phase's wall-clock length. Exactly one of
	// Duration and MaxOps must be positive.
	Duration time.Duration
	// MaxOps runs the phase for an exact operation count instead of a
	// duration — MaxOps operations per worker (closed loop) or
	// MaxOps*Threads scheduled arrivals in total (open loop). Phase
	// scheduling is deterministic in this mode; tests use it.
	MaxOps int
	// Threads is the phase's worker count; 0 inherits RunOptions.Threads.
	Threads int
	// Workload sets the Table 2 read/update split for the phase.
	Workload ops.Workload
	// LongTraversals / StructureMods / Reduced gate operation
	// categories exactly like the harness options of the same names.
	LongTraversals bool
	StructureMods  bool
	Reduced        bool
	// Weights overrides the Table 2 category shares with relative
	// weights (renormalized; missing or zero-weight categories draw
	// nothing). Nil keeps Table 2.
	Weights map[ops.Category]float64
	// SkewTheta, when nonzero, concentrates random-id draws on a
	// zipfian hotspot over composite parts (YCSB-style exponent in
	// (0, 1); larger is hotter). SkewShift rotates the hotspot start to
	// that fraction of the id domain, so consecutive phases can migrate
	// it.
	SkewTheta float64
	SkewShift float64
	// OpenLoop selects the Poisson open-loop driver at ArrivalRate
	// ops/s (total); response time is then measured from the scheduled
	// arrival, queueing included.
	OpenLoop    bool
	ArrivalRate float64
	// ShedAfter is the open-loop overload-shedding lateness budget: an
	// arrival still unserved ShedAfter past its due time is refused
	// (counted, never executed) instead of stretching the queue. Zero =
	// never shed on lateness. Open-loop phases only.
	ShedAfter time.Duration
	// QueueBound caps the open-loop arrival backlog: when more than
	// QueueBound later arrivals are already due, the head arrival is
	// shed. Zero = unbounded. Open-loop phases only.
	QueueBound int
}

// categoryEnabled mirrors ops.Profile.Enabled at the category level: a
// weighted category that the phase's flags disable draws nothing, so a
// weight map whose mass lies entirely on disabled categories would leave
// the picker empty.
func (ph Phase) categoryEnabled(cat ops.Category) bool {
	switch cat {
	case ops.LongTraversal:
		return ph.LongTraversals && !ph.Reduced
	case ops.StructureModification:
		return ph.StructureMods
	default:
		return true
	}
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
	// Engine is an engine-spec option list ("versions=4",
	// "deadline=25ms,faults=seed=7,abort:1/24"; see stm.ParseEngineSpec)
	// applied over the run's engine options: a key set here overrides
	// the run's value, an unset key inherits it, and "serial=off" turns a
	// run-level serial off (stm.EngineOptions.Apply).
	Engine string
	Phases []Phase
}

// Validate checks the scenario for the error classes the parser and the
// runner rely on being absent: a malformed engine overlay, phases without
// a length, conflicting length specifications, bad mix weights,
// out-of-range skew, and open-loop phases without an arrival rate.
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
		label := ph.Name
		if label == "" {
			return fmt.Errorf("scenario %q: phase %d has no name", sc.Name, i+1)
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario %q phase %q: %s", sc.Name, label, fmt.Sprintf(format, args...))
		}
		switch {
		case ph.Duration < 0:
			return bad("negative duration %v", ph.Duration)
		case ph.MaxOps < 0:
			return bad("negative max_ops %d", ph.MaxOps)
		case ph.Duration == 0 && ph.MaxOps == 0:
			return bad("needs a positive duration or max_ops")
		case ph.Duration > 0 && ph.MaxOps > 0:
			return bad("set exactly one of duration and max_ops")
		case ph.Threads < 0:
			return bad("negative threads %d", ph.Threads)
		case ph.SkewTheta < 0 || ph.SkewTheta >= 1:
			return bad("skew %v outside [0, 1)", ph.SkewTheta)
		case ph.SkewShift < 0 || ph.SkewShift >= 1:
			return bad("skew_shift %v outside [0, 1)", ph.SkewShift)
		case ph.OpenLoop && ph.ArrivalRate <= 0:
			return bad("open-loop phase needs arrival_rate > 0")
		case !ph.OpenLoop && ph.ArrivalRate != 0:
			return bad("arrival_rate set on a closed-loop phase (did you mean open_loop: true?)")
		case ph.ShedAfter < 0:
			return bad("negative shed_after %v", ph.ShedAfter)
		case ph.QueueBound < 0:
			return bad("negative queue_bound %d", ph.QueueBound)
		case !ph.OpenLoop && (ph.ShedAfter > 0 || ph.QueueBound > 0):
			return bad("shed_after/queue_bound shed from the open-loop queue; this phase is closed-loop")
		}
		if ph.Weights != nil {
			sum, enabledSum := 0.0, 0.0
			for cat, w := range ph.Weights {
				if cat < ops.LongTraversal || cat > ops.StructureModification {
					return bad("weight for unknown category %d", cat)
				}
				if w < 0 {
					return bad("negative weight %v for %v", w, cat)
				}
				sum += w
				if ph.categoryEnabled(cat) {
					enabledSum += w
				}
			}
			if sum <= 0 {
				return bad("mix weights sum to zero")
			}
			if enabledSum <= 0 {
				return bad("mix weights give no enabled category a positive share (all weighted categories are disabled by the phase's flags)")
			}
		}
	}
	return nil
}
