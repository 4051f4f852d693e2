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
	sc := &Scenario{Name: "causes", Adaptive: "on", Phases: []Phase{
		{Name: "storm", Threads: 2, Duration: time.Second, Workload: ops.WriteDominated},
	}}
	res := &harness.Result{
		Options: harness.Options{Threads: 2, Workload: ops.WriteDominated, Adaptive: true},
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
		"engine: norec\n", "adaptive: on\n", // the configuration echo
		`Adaptive decisions, phase "storm"`,
		"t3 conflict-storm: norec -> tl2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestParseAdaptiveKnob: the run-level adaptive key parses, validates, and
// bad values are rejected.
func TestParseAdaptiveKnob(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "a", "adaptive": "on",
		"phases": [{"name": "p", "duration": "1s"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Adaptive != "on" {
		t.Errorf("Adaptive = %q, want on", sc.Adaptive)
	}
	if _, err := Parse([]byte(`{
		"name": "a", "adaptive": "sometimes",
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
	rep, err := Run(sc, RunOptions{Strategy: "norec", Threads: 2, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Phases {
		if pr.Result.EngineStats.Commits == 0 {
			t.Errorf("phase %q committed nothing under the adaptive runtime", pr.Phase.Name)
		}
	}

	// Scenario-level "off" wins over the run-level flag: the engine must
	// be the plain one, which shows as zero reconfiguration capability —
	// the options echo says adaptive off.
	off := &Scenario{Name: "adaptive-off", Adaptive: "off", Phases: sc.Phases}
	rep, err = Run(off, RunOptions{Strategy: "norec", Threads: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases[0].Result.Options.Adaptive {
		t.Error(`scenario "adaptive": "off" did not override the run-level flag`)
	}

	// Adaptive needs an engine the registry can rebuild: the lock
	// baselines are rejected up front.
	if _, err := Run(sc, RunOptions{Strategy: "coarse", Threads: 1, Adaptive: true}); err == nil {
		t.Error("adaptive accepted the coarse lock baseline")
	}
}
