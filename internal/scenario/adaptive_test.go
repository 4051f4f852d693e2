package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/harness"
	"repro/internal/ops"
	"repro/stm"
)

// TestReportAbortCauseColumns feeds WriteReport a synthetic report so the
// per-phase abort-cause breakdown (cfl/tmo/inj columns) is checked against
// known counter values, not a timing-dependent run.
func TestReportAbortCauseColumns(t *testing.T) {
	sc := &Scenario{Name: "causes", Engine: "adaptive", Phases: []Phase{
		{Name: "storm", Threads: 2, Duration: time.Second, Workload: ops.WriteDominated},
	}}
	res := &harness.Result{
		Options: harness.Options{Threads: 2, Workload: ops.WriteDominated, Engine: stm.EngineOptions{Adaptive: true}},
		Elapsed: time.Second,
		EngineStats: stm.Stats{
			Commits:        1000,
			ConflictAborts: 123,
			TimeoutAborts:  45,
			InjectedFaults: 67,
		},
		Reconfigs: []adapt.Decision{{
			Interval: 3, Rule: "conflict-storm",
			From: stm.EngineSpec{Name: "norec"},
			To:   stm.EngineSpec{Name: "tl2"},
		}},
	}
	rep := &Report{Scenario: sc, Strategy: "norec", Phases: []PhaseResult{{Phase: sc.Phases[0], Result: res}}}
	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{
		"cfl", "tmo", "inj", // the breakdown columns
		"123", "45", "67", // the per-phase counter values
		"engine: norec:adaptive\n", // the configuration echo
		`Adaptive decisions, phase "storm"`,
		"t3 conflict-storm: norec -> tl2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestParseAdaptiveKnob: the adaptive engine key parses, validates, and
// bad values are rejected.
func TestParseAdaptiveKnob(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "a", "engine": "adaptive",
		"phases": [{"name": "p", "duration": "1s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if o, err := (stm.EngineOptions{}).Apply(sc.Engine); err != nil || o.String() != "adaptive" {
		t.Errorf("engine %q applied to %+v, %v; want adaptive set", sc.Engine, o, err)
	}
	if _, err := Parse([]byte(`{
		"name": "a", "engine": "adaptive=sometimes",
		"phases": [{"name": "p", "duration": "1s"}]
	}`)); err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("bad adaptive value accepted: %v", err)
	}
}

// TestAdaptiveScenarioRuns: a short multi-phase run with the adaptive
// runtime on completes, keeps its counters, and the scenario-level "off"
// override beats a run-level on.
func TestAdaptiveScenarioRuns(t *testing.T) {
	sc := &Scenario{Name: "adaptive-run", Phases: []Phase{
		{Name: "a", MaxOps: 150, Workload: ops.ReadWrite, StructureMods: true},
		{Name: "b", MaxOps: 150, Workload: ops.WriteDominated, StructureMods: true},
	}}
	adaptive := stm.EngineOptions{Adaptive: true}
	rep, err := Run(sc, RunOptions{Strategy: "norec", Threads: 2, Engine: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Phases {
		if pr.Result.EngineStats.Commits == 0 {
			t.Errorf("phase %q committed nothing under the adaptive runtime", pr.Phase.Name)
		}
	}

	// Scenario-level "adaptive=off" wins over the run-level key: the
	// options echo says adaptive off, and no controller ran.
	off := &Scenario{Name: "adaptive-off", Engine: "adaptive=off", Phases: sc.Phases}
	rep, err = Run(off, RunOptions{Strategy: "norec", Threads: 1, Engine: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if res := rep.Phases[0].Result; res.Options.Engine.Adaptive || res.Reconfigs != nil {
		t.Error(`scenario engine "adaptive=off" did not override the run-level key`)
	}

	// Adaptive needs an engine the registry can rebuild: the lock
	// baselines are rejected up front.
	if _, err := Run(sc, RunOptions{Strategy: "coarse", Threads: 1, Engine: adaptive}); err == nil {
		t.Error("adaptive accepted the coarse lock baseline")
	}
}
