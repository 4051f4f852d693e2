package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
)

func TestParseRobustnessKnobs(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "rob",
		"engine": "deadline=25ms,serial,faults=seed=7,abort:1/24",
		"phases": [{"name": "p", "duration": "10ms"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Engine != "deadline=25ms,serial,faults=seed=7,abort:1/24" {
		t.Errorf("robustness knobs not parsed: %+v", sc)
	}

	for _, c := range []struct{ engine, what string }{
		{"deadline=soon", "bad deadline"},
		{"deadline=-5ms", "negative deadline"},
		{"serial=maybe", "bad serial"},
		{"faults=seed=7", "bare-seed fault plan"},
	} {
		if _, err := Parse([]byte(`{
			"name": "rob",
			"engine": "` + c.engine + `",
			"phases": [{"name": "p", "duration": "10ms"}]
		}`)); err == nil || !strings.Contains(err.Error(), "engine") {
			t.Errorf("%s not rejected: %v", c.what, err)
		}
	}

	// The robustness knobs are run-level, like the metadata axes.
	if _, err := Parse([]byte(`{
		"name": "rob",
		"phases": [{"name": "p", "duration": "10ms", "engine": "deadline=25ms"}]
	}`)); err == nil {
		t.Error("per-phase deadline accepted (robustness is run-level)")
	}
}

func TestParseShedKnobs(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "shed",
		"phases": [{"name": "p", "duration": "10ms", "open_loop": true,
		            "arrival_rate": 1000, "shed_after": "2ms", "queue_bound": 64}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Phases[0].ShedAfter != 2*time.Millisecond || sc.Phases[0].QueueBound != 64 {
		t.Errorf("shed knobs not parsed: %+v", sc.Phases[0])
	}

	if _, err := Parse([]byte(`{
		"name": "shed",
		"phases": [{"name": "p", "duration": "10ms", "open_loop": true,
		            "arrival_rate": 1000, "shed_after": "whenever"}]
	}`)); err == nil || !strings.Contains(err.Error(), "shed_after") {
		t.Errorf("bad shed_after not rejected: %v", err)
	}
	// An explicit zero queue bound is a contradiction (0 = unbounded).
	if _, err := Parse([]byte(`{
		"name": "shed",
		"phases": [{"name": "p", "duration": "10ms", "open_loop": true,
		            "arrival_rate": 1000, "queue_bound": 0}]
	}`)); err == nil || !strings.Contains(err.Error(), "queue_bound") {
		t.Errorf("explicit zero queue_bound not rejected: %v", err)
	}
	// Shed knobs on a closed-loop phase are a design error.
	if _, err := Parse([]byte(`{
		"name": "shed",
		"phases": [{"name": "p", "duration": "10ms", "shed_after": "2ms"}]
	}`)); err == nil {
		t.Error("shed_after on a closed-loop phase accepted")
	}
	// Turning open_loop off drops inherited shed defaults along with the
	// arrival rate.
	sc, err = Parse([]byte(`{
		"name": "shed",
		"defaults": {"open_loop": true, "arrival_rate": 1000,
		             "shed_after": "2ms", "queue_bound": 64},
		"phases": [{"name": "open", "duration": "10ms"},
		           {"name": "closed", "duration": "10ms", "open_loop": false}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	closed := sc.Phases[1]
	if closed.OpenLoop || closed.ShedAfter != 0 || closed.QueueBound != 0 {
		t.Errorf("open_loop false did not drop inherited shed knobs: %+v", closed)
	}
}

func TestValidateRejectsBadRobustness(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Name: "r", Phases: []Phase{{Name: "p", MaxOps: 1}}}
	}
	for _, engine := range []string{"deadline=not-a-duration", "serial=yes", "faults=precommit:everytime"} {
		sc := base()
		sc.Engine = engine
		if err := sc.Validate(); err == nil {
			t.Errorf("bad engine %q accepted", engine)
		}
	}
	sc := base()
	sc.Phases[0].ShedAfter = -time.Millisecond
	if err := sc.Validate(); err == nil {
		t.Error("negative shed_after accepted")
	}
	sc = base()
	sc.Phases[0].QueueBound = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative queue_bound accepted")
	}
}

// TestRunOptionsCarryRobustnessKnobs: the fault plan, deadline and serial
// fallback must reach the engine (InjectedFaults/SerialFallbacks are the
// discriminators), and a scenario that pins its own values overrides the
// run's.
func TestRunOptionsCarryRobustnessKnobs(t *testing.T) {
	phases := []Phase{{Name: "p", MaxOps: 100, Workload: ops.ReadWrite, StructureMods: true}}

	rep, err := Run(&Scenario{Name: "rob", Phases: phases},
		RunOptions{Strategy: "tl2", Threads: 2, Engine: mustOpts(t, "deadline=5s,serial,faults=seed=3,abort:1/6")})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Phases[0].Result.EngineStats.InjectedFaults; got == 0 {
		t.Error("InjectedFaults = 0 — run-level fault plan not plumbed")
	}

	// Scenario-pinned plan beats the run's nil plan; serial beats the
	// run's false.
	pinned, err := Run(&Scenario{Name: "rob-pinned", Engine: "serial,faults=abort:1/1", Phases: phases},
		RunOptions{Strategy: "norec", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	es := pinned.Phases[0].Result.EngineStats
	if es.InjectedFaults == 0 {
		t.Error("scenario override: InjectedFaults = 0 — scenario faults= did not win")
	}
	if es.SerialFallbacks == 0 {
		t.Error("scenario override: SerialFallbacks = 0 — scenario serial did not win")
	}
}

// TestChaosStormBuiltin: the robustness scenario runs end to end under
// every knob it pins, and the report's engine line carries them.
func TestChaosStormBuiltin(t *testing.T) {
	sc, ok := Builtin("chaos-storm")
	if !ok {
		t.Fatal("chaos-storm not registered")
	}
	if pins := mustOpts(t, sc.Engine); pins.TxDeadline != 25*time.Millisecond || pins.Faults == nil {
		t.Fatalf("chaos-storm robustness shape: %+v", sc)
	}
	shedPhase := -1
	for i, ph := range sc.Phases {
		if ph.OpenLoop && (ph.ShedAfter > 0 || ph.QueueBound > 0) {
			shedPhase = i
		}
	}
	if shedPhase < 0 {
		t.Fatal("chaos-storm has no open-loop phase with shedding")
	}
	rep, err := Run(sc, RunOptions{Strategy: "tl2", Threads: 2, TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var injected uint64
	for _, pr := range rep.Phases {
		injected += pr.Result.EngineStats.InjectedFaults
	}
	if injected == 0 {
		t.Error("chaos-storm fired no faults")
	}
	var buf strings.Builder
	WriteReport(&buf, rep)
	out := buf.String()
	for _, want := range []string{"engine: tl2:deadline=25ms,faults=seed=7,precommit:1/40:80µs,"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
