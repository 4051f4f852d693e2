package adapt

import (
	"reflect"
	"testing"
	"time"

	"repro/stm"
)

// quiet is an interval with enough signal to clear MinAttempts but no
// pressure that fires any rule.
func quiet() stm.Stats { return stm.Stats{Commits: 100} }

// stormy is a conflict-storm interval: abort rate 50%, well past
// StormAbortRate.
func stormy() stm.Stats { return stm.Stats{Commits: 100, ConflictAborts: 100} }

// replay feeds a delta sequence into a fresh controller and returns the
// decision timeline.
func replay(initial stm.EngineSpec, cfg Config, deltas []stm.Stats) []Decision {
	c := NewController(initial, cfg)
	for _, d := range deltas {
		c.Observe(d)
	}
	return c.Decisions()
}

// TestControllerDeterministicTimeline is the acceptance criterion: the
// controller is a pure function of its observation sequence, so feeding
// the same deltas twice produces an identical decision timeline.
func TestControllerDeterministicTimeline(t *testing.T) {
	var deltas []stm.Stats
	for i := 0; i < 40; i++ {
		switch {
		case i%7 == 3:
			deltas = append(deltas, stormy())
		case i%5 == 1:
			deltas = append(deltas, stm.Stats{Commits: 80, ConflictAborts: 25})
		default:
			deltas = append(deltas, quiet())
		}
	}
	initial := stm.EngineSpec{Name: "norec"}
	a := replay(initial, DefaultConfig(), deltas)
	b := replay(initial, DefaultConfig(), deltas)
	if len(a) == 0 {
		t.Fatal("the storm sequence produced no decisions at all")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same deltas, different timelines:\n  a: %v\n  b: %v", a, b)
	}
}

// TestControllerMinDwell: no switch may fire before MinDwell intervals,
// even under a hard storm from the first observation.
func TestControllerMinDwell(t *testing.T) {
	cfg := DefaultConfig()
	c := NewController(stm.EngineSpec{Name: "norec"}, cfg)
	for i := 1; i < cfg.MinDwell; i++ {
		if dec := c.Observe(stormy()); dec != nil {
			t.Fatalf("interval %d (< MinDwell %d) produced %v", i, cfg.MinDwell, dec)
		}
	}
	dec := c.Observe(stormy())
	if dec == nil {
		t.Fatalf("interval %d (= MinDwell) produced no decision", cfg.MinDwell)
	}
	if dec.Interval != cfg.MinDwell {
		t.Errorf("first switch at interval %d, want %d", dec.Interval, cfg.MinDwell)
	}
}

// TestControllerCooldown: after a switch, the next may not fire for
// Cooldown intervals even if a rule keeps firing.
func TestControllerCooldown(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 6, JudgeAfter: 100, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec", Options: stm.EngineOptions{TxDeadline: time.Millisecond}}, cfg)
	first := c.Observe(stormy())
	if first == nil {
		t.Fatal("no first switch")
	}
	var second *Decision
	for i := 0; second == nil && i < 20; i++ {
		// Keep deadline pressure on so a rule always wants to fire on the
		// post-storm engine (tl2 with a deadline armed).
		second = c.Observe(stm.Stats{Commits: 100, TimeoutAborts: 5})
	}
	if second == nil {
		t.Fatal("no second switch within 20 intervals")
	}
	if got := second.Interval - first.Interval; got < cfg.Cooldown {
		t.Errorf("switch spacing %d, want >= cooldown %d", got, cfg.Cooldown)
	}
}

// TestControllerCooldownRequiresDeadline documents the deadline-pressure
// gating: without a TxDeadline configured the rule never applies.
func TestControllerCooldownRequiresDeadline(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "tl2"}, cfg)
	for i := 0; i < 10; i++ {
		if dec := c.Observe(stm.Stats{Commits: 100, TimeoutAborts: 5}); dec != nil {
			t.Fatalf("deadline-pressure fired without a TxDeadline: %v", dec)
		}
	}
	c = NewController(stm.EngineSpec{Name: "tl2", Options: stm.EngineOptions{TxDeadline: time.Millisecond}}, cfg)
	dec := c.Observe(stm.Stats{Commits: 100, TimeoutAborts: 5})
	if dec == nil || dec.Rule != "deadline-pressure" || !dec.To.Options.SerialFallback {
		t.Fatalf("deadline-pressure with a TxDeadline: got %v, want serial-fallback switch", dec)
	}
}

// TestControllerMaxSwitches: the switch budget is a hard cap.
func TestControllerMaxSwitches(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 1, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec"}, cfg)
	n := 0
	for i := 0; i < 30; i++ {
		if dec := c.Observe(stm.Stats{Commits: 100, ConflictAborts: 100, TimeoutAborts: 5}); dec != nil && !dec.Pinned {
			n++
		}
	}
	if n != 1 {
		t.Errorf("switches = %d, want exactly MaxSwitches = 1", n)
	}
}

// TestControllerMinAttempts: an interval below the signal floor never
// fires a rule, whatever its rates look like.
func TestControllerMinAttempts(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, MaxSwitches: 10, MinAttempts: 32, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec"}, cfg)
	for i := 0; i < 10; i++ {
		// 10 attempts, 90% aborts — loud rate, tiny sample.
		if dec := c.Observe(stm.Stats{Commits: 1, ConflictAborts: 9}); dec != nil {
			t.Fatalf("switch fired on a %d-attempt interval (floor %d): %v", 10, cfg.MinAttempts, dec)
		}
	}
}

// TestControllerThrashGuardrail: two consecutive switches whose judged
// objective does not improve pin the configuration; after the pin no rule
// ever fires again.
func TestControllerThrashGuardrail(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 2, JudgeAfter: 1, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec", Options: stm.EngineOptions{TxDeadline: time.Millisecond}}, cfg)
	var pinned *Decision
	for i := 0; i < 40 && pinned == nil; i++ {
		// Permanent storm + deadline pressure, objective never improves:
		// every switch is judged a failure.
		dec := c.Observe(stormy())
		if dec != nil && dec.Pinned {
			pinned = dec
		}
	}
	if pinned == nil {
		t.Fatal("no guardrail pin within 40 non-improving intervals")
	}
	if pinned.Rule != "thrash-guardrail" {
		t.Errorf("pin rule = %q, want thrash-guardrail", pinned.Rule)
	}
	if !c.Pinned() {
		t.Error("Pinned() = false after a pin decision")
	}
	if pinned.From != pinned.To || pinned.From != c.Current() {
		t.Errorf("pin must keep the current setting: %v", pinned)
	}
	for i := 0; i < 10; i++ {
		if dec := c.Observe(stormy()); dec != nil {
			t.Fatalf("decision after pin: %v", dec)
		}
	}
}

// TestControllerJudgeImprovement: a switch whose objective improves
// resets the fail streak, so alternating good switches never pin.
func TestControllerJudgeImprovement(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 3, JudgeAfter: 1, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec", Options: stm.EngineOptions{TxDeadline: time.Millisecond}}, cfg)
	// Storm fires the first switch at t1 (objective 100)...
	if dec := c.Observe(stormy()); dec == nil {
		t.Fatal("no first switch")
	}
	// ...and the judged interval improves (150 > 100): streak resets.
	c.Observe(stm.Stats{Commits: 150})
	for i := 0; i < 30; i++ {
		dec := c.Observe(stm.Stats{Commits: 150, TimeoutAborts: 3})
		if dec != nil && dec.Pinned {
			t.Fatalf("guardrail pinned despite improving objectives: %v", dec)
		}
		c.Observe(stm.Stats{Commits: 200 + uint64(i)})
	}
}

// TestControllerNoteStall: a stalled swap reverts the tracked setting,
// marks the decision, and two stalls in a row pin.
func TestControllerNoteStall(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	// Group commit already armed, so the storm's first applicable remedy
	// is the engine swap — the decision a stall leaves half-done.
	initial := stm.EngineSpec{Name: "norec", Options: stm.EngineOptions{GroupCommit: true}}
	c := NewController(initial, cfg)
	dec := c.Observe(stormy())
	if dec == nil || dec.To.Name != "tl2" {
		t.Fatalf("expected norec -> tl2 storm switch, got %v", dec)
	}
	if pin := c.NoteStall(); pin != nil {
		t.Fatalf("first stall pinned immediately: %v", pin)
	}
	if c.Current() != initial {
		t.Errorf("stall did not revert: Current() = %v, want %v", c.Current(), initial)
	}
	if !c.Decisions()[0].Stalled {
		t.Error("stalled decision not marked")
	}
	dec = nil
	for i := 0; dec == nil && i < 10; i++ {
		dec = c.Observe(stormy())
	}
	if dec == nil {
		t.Fatal("no retry switch after the first stall")
	}
	pin := c.NoteStall()
	if pin == nil || !pin.Pinned {
		t.Fatalf("second consecutive stall must pin, got %v", pin)
	}
}

// TestRuleOrderCheapestFirst pins the policy table's escalation order:
// on NOrec in a 50%-abort interval the group-commit knob (cheap) fires
// before the engine swap (disruptive), and the swap fires once group
// commit is already armed.
func TestRuleOrderCheapestFirst(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	c := NewController(stm.EngineSpec{Name: "norec"}, cfg)
	first := c.Observe(stormy())
	if first == nil || first.Rule != "group-commit" || !first.To.Options.GroupCommit {
		t.Fatalf("first remedy = %v, want group-commit", first)
	}
	second := c.Observe(stormy())
	if second == nil || second.Rule != "conflict-storm" || second.To.Name != "tl2" {
		t.Fatalf("second remedy = %v, want conflict-storm -> tl2", second)
	}
	if second.To.Options.GroupCommit {
		t.Error("engine swap carried the NOrec-only group-commit knob onto tl2")
	}
}

// TestFalseConflictRule: a stripe-collision storm promotes striped
// metadata to object granularity and drops the striped-only coalescing
// knob; on an already-object setting the rule does not apply.
func TestFalseConflictRule(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	striped := stm.EngineSpec{Name: "tl2", Options: stm.EngineOptions{
		Granularity: stm.StripedGranularity, OrecStripes: 64, LockCoalescing: true,
	}}
	delta := stm.Stats{Commits: 50, ConflictAborts: 40, FalseConflicts: 20}
	c := NewController(striped, cfg)
	dec := c.Observe(delta)
	if dec == nil || dec.Rule != "false-conflicts" {
		t.Fatalf("striped under collision storm: %v, want false-conflicts", dec)
	}
	if dec.To.Options.Granularity != stm.ObjectGranularity || dec.To.Options.LockCoalescing {
		t.Errorf("promotion target = %v, want object granularity without coalescing", dec.To)
	}
	c = NewController(stm.EngineSpec{Name: "tl2"}, cfg)
	if dec := c.Observe(delta); dec != nil {
		t.Fatalf("false-conflicts fired on object granularity: %v", dec)
	}
}

// TestSnapshotStormRule: restarts outnumbering snapshot transactions
// deepen the version chain to 4 on tl2/norec only, once.
func TestSnapshotStormRule(t *testing.T) {
	cfg := Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 10, MinAttempts: 1, Rules: DefaultRules()}
	delta := stm.Stats{Commits: 50, SnapshotTxs: 20, SnapshotRestarts: 30}
	c := NewController(stm.EngineSpec{Name: "tl2"}, cfg)
	dec := c.Observe(delta)
	if dec == nil || dec.Rule != "snapshot-storm" || dec.To.Options.Versions != 4 {
		t.Fatalf("snapshot storm on tl2: %v, want Versions=4", dec)
	}
	if again := c.Observe(delta); again != nil {
		t.Fatalf("snapshot-storm re-fired at Versions=4: %v", again)
	}
	c = NewController(stm.EngineSpec{Name: "ostm"}, cfg)
	if dec := c.Observe(delta); dec != nil {
		t.Fatalf("snapshot-storm fired on ostm (no snapshot timestamp): %v", dec)
	}
}

// TestDecisionString pins the rendering the reports embed: both sides of
// a decision print as engine specs.
func TestDecisionString(t *testing.T) {
	norec := stm.EngineSpec{Name: "norec"}
	gc := stm.EngineSpec{Name: "norec", Options: stm.EngineOptions{GroupCommit: true}}
	tl2 := stm.EngineSpec{Name: "tl2", Options: stm.EngineOptions{
		Granularity: stm.StripedGranularity, OrecStripes: 64, LockCoalescing: true, Versions: 4, SerialFallback: true,
	}}
	for _, tc := range []struct {
		d    Decision
		want string
	}{
		{Decision{Interval: 4, Rule: "group-commit", From: norec, To: gc}, "t4 group-commit: norec -> norec:gc"},
		{Decision{Interval: 9, Rule: "conflict-storm", From: gc, To: tl2, Stalled: true},
			"t9 conflict-storm: norec:gc -> tl2:striped=64,versions=4,coalesce,serial (quiesce stalled, kept norec:gc)"},
		{Decision{Interval: 12, Rule: "thrash-guardrail", From: tl2, To: tl2, Pinned: true},
			"t12 thrash-guardrail: pinned at tl2:striped=64,versions=4,coalesce,serial"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestDriverClosedLoop runs the real loop against a real Adaptive engine.
// Real contention is scheduler-dependent (a 1-CPU box barely conflicts),
// so the storm is injected: a 1-in-3 forced-abort fault plan holds the
// abort rate at ~33%, past the group-commit threshold, and the driver
// must reconfigure the engine onto the remedy within the test budget.
func TestDriverClosedLoop(t *testing.T) {
	spec, err := stm.ParseEngineSpec("norec:faults=abort:1/3")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := stm.NewAdaptive(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(stm.EngineSpec{Name: "norec"},
		Config{MinDwell: 1, Cooldown: 1, JudgeAfter: 100, MaxSwitches: 2, MinAttempts: 16, Rules: DefaultRules()})
	drv := Start(eng, ctrl, 5*time.Millisecond)

	stop := make(chan struct{})
	done := make(chan struct{})
	c := stm.NewCell(eng.VarSpace(), 0)
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.Atomic(func(tx stm.Tx) error {
				c.Update(tx, func(v int) int { return v + 1 })
				return nil
			})
		}
	}()
	deadline := time.After(5 * time.Second)
	for eng.Stats().Reconfigurations == 0 {
		select {
		case <-deadline:
			close(stop)
			<-done
			decs := drv.Stop()
			t.Fatalf("driver never reconfigured under a conflict storm; decisions: %v, stats: %+v",
				decs, eng.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	decs := drv.Stop()
	if len(decs) == 0 {
		t.Fatal("Stop returned an empty timeline after a reconfiguration")
	}
	if name := eng.Current().Name; name != decs[len(decs)-1].To.Name && !decs[len(decs)-1].Stalled {
		t.Errorf("engine %q does not match the last applied decision %v", name, decs[len(decs)-1])
	}
	// Stop is idempotent.
	if again := drv.Stop(); len(again) != len(decs) {
		t.Errorf("second Stop returned %d decisions, first %d", len(again), len(decs))
	}
}
