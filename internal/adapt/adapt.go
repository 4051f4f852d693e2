// Package adapt is the closed-loop controller for the adaptive STM
// runtime (stm.Adaptive). It watches per-interval Stats deltas — the same
// feed the telemetry sampler renders — and applies declarative policy
// rules that reconfigure the engine when the workload enters a regime a
// different configuration handles better: conflict storms move NOrec onto
// TL2, stripe-collision storms promote striped metadata to object
// granularity, snapshot-restart storms deepen the version chains,
// deadline pressure arms the serial fallback.
//
// The controller is deliberately a pure function of its observation
// sequence: Observe takes a Stats delta and returns a decision (or nil),
// and all hysteresis — minimum dwell before the first switch, cooldown
// between switches, a switch budget, the thrash guardrail — is measured
// in observation intervals, not wall-clock time. Feeding the same delta
// sequence twice therefore produces the same decision timeline, which is
// what the determinism test pins down. The Driver is the only place time
// lives: a goroutine that polls an engine's Stats on a ticker, feeds the
// controller, and applies its decisions via Reconfigure.
package adapt

import (
	"fmt"
	"sync"
	"time"

	"repro/stm"
)

// Rule is one declarative policy entry. When inspects the last interval's
// Stats delta; if it fires, Apply maps the current spec to a target (ok =
// false when the rule does not apply to the current configuration —
// e.g. a NOrec-only rule while TL2 is running). Rules are evaluated in
// order; the first applicable firing rule wins the interval.
type Rule struct {
	Name  string
	When  func(d stm.Stats) bool
	Apply func(cur stm.EngineSpec) (to stm.EngineSpec, ok bool)
}

// Config is the controller's hysteresis envelope. All windows count
// observation intervals.
type Config struct {
	// MinDwell is how many intervals the initial configuration must run
	// before the first switch may fire.
	MinDwell int
	// Cooldown is the minimum interval spacing between switches.
	Cooldown int
	// JudgeAfter is how many intervals after a switch the objective
	// (commits per interval) is compared against its pre-switch value;
	// the comparison feeds the thrash guardrail.
	JudgeAfter int
	// MaxSwitches bounds reconfigurations per run.
	MaxSwitches int
	// MinAttempts gates rule evaluation on signal: an interval with fewer
	// attempts than this is too quiet to justify a switch.
	MinAttempts uint64
	Rules       []Rule
}

// DefaultConfig returns the hysteresis envelope used by the harness: act
// only after 4 quiet-hand intervals, at most every 6, at most 4 times,
// judging each switch 2 intervals later.
func DefaultConfig() Config {
	return Config{
		MinDwell:    4,
		Cooldown:    6,
		JudgeAfter:  2,
		MaxSwitches: 4,
		MinAttempts: 32,
		Rules:       DefaultRules(),
	}
}

// Policy thresholds for DefaultRules, named so the README's policy table
// and the tests cite the same numbers.
const (
	// GroupCommitAbortRate arms NOrec group commit: moderate conflict
	// pressure on the global seqlock is exactly what batch publishing
	// amortizes.
	GroupCommitAbortRate = 0.20
	// StormAbortRate abandons NOrec for TL2: past this rate value-based
	// revalidation is re-running whole read sets every commit, and
	// per-location conflict detection wins.
	StormAbortRate = 0.35
	// FalseConflictShare promotes striped metadata to object granularity:
	// when this share of conflict aborts is stripe-collision artifacts,
	// collision-free metadata buys back real throughput.
	FalseConflictShare = 0.25
	// SnapshotStormRatio deepens version chains: when snapshot restarts
	// outnumber completed snapshot transactions, readers are losing the
	// race with writers and older versions would absorb it.
	SnapshotStormRatio = 1.0
)

// DefaultRules returns the built-in policy table, ordered cheapest remedy
// first (arming a knob on the current engine) to most disruptive (an
// engine swap).
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "deadline-pressure",
			When: func(d stm.Stats) bool { return d.TimeoutAborts > 0 },
			Apply: func(cur stm.EngineSpec) (stm.EngineSpec, bool) {
				if cur.Options.SerialFallback || cur.Options.TxDeadline <= 0 {
					return cur, false
				}
				cur.Options.SerialFallback = true
				return cur, true
			},
		},
		{
			Name: "false-conflicts",
			When: func(d stm.Stats) bool {
				return d.ConflictAborts >= 16 && d.FalseConflictRate() > FalseConflictShare
			},
			Apply: func(cur stm.EngineSpec) (stm.EngineSpec, bool) {
				if cur.Options.Granularity != stm.StripedGranularity {
					return cur, false
				}
				cur.Options.Granularity = stm.ObjectGranularity
				cur.Options.OrecStripes = 0
				cur.Options.LockCoalescing = false // striped-only mechanism
				return cur, true
			},
		},
		{
			Name: "snapshot-storm",
			When: func(d stm.Stats) bool {
				return d.SnapshotRestarts >= 16 &&
					float64(d.SnapshotRestarts) > SnapshotStormRatio*float64(d.SnapshotTxs)
			},
			Apply: func(cur stm.EngineSpec) (stm.EngineSpec, bool) {
				if cur.Options.Versions > 1 || (cur.Name != "tl2" && cur.Name != "norec") {
					return cur, false
				}
				cur.Options.Versions = 4
				return cur, true
			},
		},
		{
			Name: "group-commit",
			When: func(d stm.Stats) bool { return d.AbortRate() > GroupCommitAbortRate },
			Apply: func(cur stm.EngineSpec) (stm.EngineSpec, bool) {
				if cur.Name != "norec" || cur.Options.GroupCommit {
					return cur, false
				}
				cur.Options.GroupCommit = true
				return cur, true
			},
		},
		{
			Name: "conflict-storm",
			When: func(d stm.Stats) bool { return d.AbortRate() > StormAbortRate },
			Apply: func(cur stm.EngineSpec) (stm.EngineSpec, bool) {
				if cur.Name != "norec" {
					return cur, false
				}
				cur.Name = "tl2"
				cur.Options.GroupCommit = false // NOrec-only mechanism
				return cur, true
			},
		},
	}
}

// Decision is one controller output: a switch, a stalled switch (the
// drain deadline fired and the swap was abandoned), or a guardrail pin.
type Decision struct {
	// Interval is the 1-based observation ordinal the decision fired on.
	Interval int
	Rule     string
	From, To stm.EngineSpec
	// Pinned marks the thrash-guardrail terminal decision: From == To and
	// no further switches will fire this run.
	Pinned bool
	// Stalled is set by the Driver when applying the decision returned
	// ErrQuiesceStalled; the configuration did not change.
	Stalled bool
}

// String renders the decision for scenario reports and flight-recorder
// summaries.
func (d Decision) String() string {
	switch {
	case d.Pinned:
		return fmt.Sprintf("t%d %s: pinned at %s", d.Interval, d.Rule, d.From)
	case d.Stalled:
		return fmt.Sprintf("t%d %s: %s -> %s (quiesce stalled, kept %s)",
			d.Interval, d.Rule, d.From, d.To, d.From)
	default:
		return fmt.Sprintf("t%d %s: %s -> %s", d.Interval, d.Rule, d.From, d.To)
	}
}

// Controller applies a Config's rules to an observation stream. Not safe
// for concurrent use; the Driver serializes access.
type Controller struct {
	cfg Config
	cur stm.EngineSpec

	interval   int
	lastSwitch int
	switches   int
	pinned     bool

	// Thrash guardrail: each switch records the pre-switch objective
	// (commits in the deciding interval) and is judged JudgeAfter
	// intervals later; two consecutive non-improving switches pin the
	// configuration.
	preObjective float64
	judgeAt      int
	failStreak   int

	decisions []Decision
}

// NewController returns a controller starting from initial.
func NewController(initial stm.EngineSpec, cfg Config) *Controller {
	if cfg.MaxSwitches <= 0 {
		cfg.MaxSwitches = DefaultConfig().MaxSwitches
	}
	if cfg.JudgeAfter <= 0 {
		cfg.JudgeAfter = 1
	}
	return &Controller{cfg: cfg, cur: initial}
}

// Current returns the spec the controller believes is running.
func (c *Controller) Current() stm.EngineSpec { return c.cur }

// Pinned reports whether the thrash guardrail has latched.
func (c *Controller) Pinned() bool { return c.pinned }

// Decisions returns the decision timeline so far.
func (c *Controller) Decisions() []Decision { return c.decisions }

// Observe feeds one interval's Stats delta and returns the decision it
// produced, or nil. A returned non-pinned decision means the caller
// should apply To via Reconfigure (and report a stall with NoteStall).
func (c *Controller) Observe(delta stm.Stats) *Decision {
	c.interval++
	objective := float64(delta.Commits)

	// Judge the pending switch before considering a new one.
	if c.judgeAt != 0 && c.interval >= c.judgeAt {
		if objective <= c.preObjective {
			c.failStreak++
		} else {
			c.failStreak = 0
		}
		c.judgeAt = 0
		if c.failStreak >= 2 && !c.pinned {
			return c.pin("thrash-guardrail")
		}
	}

	if c.pinned || c.switches >= c.cfg.MaxSwitches {
		return nil
	}
	if c.interval < c.cfg.MinDwell {
		return nil
	}
	if c.lastSwitch != 0 && c.interval-c.lastSwitch < c.cfg.Cooldown {
		return nil
	}
	if delta.Attempts() < c.cfg.MinAttempts {
		return nil
	}

	for i := range c.cfg.Rules {
		r := &c.cfg.Rules[i]
		if !r.When(delta) {
			continue
		}
		to, ok := r.Apply(c.cur)
		if !ok {
			continue
		}
		d := Decision{Interval: c.interval, Rule: r.Name, From: c.cur, To: to}
		c.decisions = append(c.decisions, d)
		c.preObjective = objective
		c.judgeAt = c.interval + c.cfg.JudgeAfter
		c.lastSwitch = c.interval
		c.switches++
		c.cur = to
		return &c.decisions[len(c.decisions)-1]
	}
	return nil
}

// NoteStall records that the most recent decision's swap was abandoned on
// a stalled quiesce drain: the configuration reverts to From and the
// stall counts against the thrash guardrail (a switch that could not even
// drain did not improve anything).
func (c *Controller) NoteStall() *Decision {
	if len(c.decisions) == 0 {
		return nil
	}
	last := &c.decisions[len(c.decisions)-1]
	last.Stalled = true
	c.cur = last.From
	c.judgeAt = 0
	c.failStreak++
	if c.failStreak >= 2 && !c.pinned {
		return c.pin(last.Rule)
	}
	return nil
}

func (c *Controller) pin(rule string) *Decision {
	c.pinned = true
	d := Decision{Interval: c.interval, Rule: rule, From: c.cur, To: c.cur, Pinned: true}
	c.decisions = append(c.decisions, d)
	return &c.decisions[len(c.decisions)-1]
}

// DefaultInterval is the Driver's observation cadence when the caller
// does not choose one. Short enough to catch a phase shift within a
// second, long enough that an interval carries real signal.
const DefaultInterval = 50 * time.Millisecond

// Driver closes the loop: it polls eng.Stats() every interval, feeds the
// controller the delta, and applies decisions via Reconfigure. Stop tears
// it down and returns the decision timeline.
type Driver struct {
	eng      *stm.Adaptive
	ctrl     *Controller
	interval time.Duration

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// Start launches the control loop (interval <= 0 uses DefaultInterval).
func Start(eng *stm.Adaptive, ctrl *Controller, interval time.Duration) *Driver {
	if interval <= 0 {
		interval = DefaultInterval
	}
	d := &Driver{
		eng:      eng,
		ctrl:     ctrl,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go d.loop()
	return d
}

func (d *Driver) loop() {
	defer close(d.done)
	prev := d.eng.Stats()
	tick := time.NewTicker(d.interval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		s := d.eng.Stats()
		delta := s.Delta(prev)
		prev = s
		d.mu.Lock()
		dec := d.ctrl.Observe(delta)
		d.mu.Unlock()
		if dec == nil {
			continue
		}
		if dec.Pinned {
			d.eng.NotePin()
			continue
		}
		if err := d.eng.Reconfigure(dec.To); err != nil {
			d.mu.Lock()
			if pin := d.ctrl.NoteStall(); pin != nil {
				d.mu.Unlock()
				d.eng.NotePin()
				continue
			}
			d.mu.Unlock()
		}
	}
}

// Stop ends the loop and returns the decision timeline.
func (d *Driver) Stop() []Decision {
	select {
	case <-d.done:
	default:
		close(d.stop)
		<-d.done
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Decision(nil), d.ctrl.Decisions()...)
}
