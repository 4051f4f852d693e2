package scenario

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ops"
	"repro/internal/sync7"
	"repro/stm"
)

// engines is the full strategy set scenarios are exercised on: both lock
// baselines plus every registered STM engine (ostm, tl2, norec, ...).
func engines() []string {
	return append([]string{"coarse", "medium"}, sync7.STMStrategies()...)
}

// mustOpts parses an engine-spec option list a test spells as a literal.
func mustOpts(t *testing.T, list string) stm.EngineOptions {
	t.Helper()
	o, err := stm.EngineOptions{}.Apply(list)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBuiltinLibrary validates every built-in scenario and checks the
// library holds each one exactly once, under the names CI, the README
// and the examples use.
func TestBuiltinLibrary(t *testing.T) {
	want := []string{
		"chaos-storm", "engine-sweep", "hotspot-migration",
		"read-burst-write-storm", "smoke", "spike",
	}
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		sc, ok := Builtin(name)
		if !ok || sc.Name != name {
			t.Fatalf("builtin %q: lookup returned %v, %v", name, sc, ok)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
	}
}

// TestBuiltinsOnEveryEngine runs every built-in scenario on every engine
// (time-scaled way down) and checks each phase did work — the subsystem's
// end-to-end smoke across the whole strategy matrix.
func TestBuiltinsOnEveryEngine(t *testing.T) {
	scale := 0.02
	if testing.Short() {
		scale = 0.01
	}
	for _, eng := range engines() {
		for _, name := range Names() {
			t.Run(eng+"/"+name, func(t *testing.T) {
				sc, _ := Builtin(name)
				rep, err := Run(sc, RunOptions{
					Options: harness.Options{
						Strategy: eng,
						Threads:  2,
					},
					TimeScale: scale,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Phases) != len(sc.Phases) {
					t.Fatalf("ran %d phases, want %d", len(rep.Phases), len(sc.Phases))
				}
				for _, pr := range rep.Phases {
					if pr.Result.TotalAttempted() == 0 {
						t.Errorf("phase %q attempted nothing", pr.Phase.Name)
					}
					if pr.Phase.OpenLoop {
						// Every arrival is attempted. Only a phase that
						// declares an overload policy (chaos-storm's squall)
						// may shed, which it does on a busy host.
						want, shed := pr.Result.TotalAttempted(), int64(0)
						if pr.Phase.ShedAfter > 0 || pr.Phase.QueueBound > 0 {
							shed = pr.Result.ShedOps
						}
						if pr.Result.Arrivals != want+shed {
							t.Errorf("phase %q: arrivals %d != attempted %d + shed %d",
								pr.Phase.Name, pr.Result.Arrivals, want, shed)
						}
						if _, ok := pr.Result.ResponseLatency(); !ok {
							t.Errorf("phase %q: open loop without response summary", pr.Phase.Name)
						}
					}
				}
			})
		}
	}
}

// TestDeterministicMaxOpsScheduling covers the satellite requirement:
// with MaxOps phases, two runs of the same scenario draw the identical
// multiset of operations in every phase. The closed loop is deterministic
// single-threaded (one fixed stream); the open loop is deterministic even
// multi-threaded, because arrival i always runs on rng.New(seeds[i]) no
// matter which worker serves it.
func TestDeterministicMaxOpsScheduling(t *testing.T) {
	sc := &Scenario{
		Name: "det",
		Phases: []Phase{
			{Name: "closed", Options: harness.Options{MaxOps: 150, Threads: 1, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.9}},
			{Name: "open", Options: harness.Options{MaxOps: 150, Threads: 2, Workload: ops.WriteDominated, StructureMods: true, OpenLoop: true, ArrivalRate: 100000}},
		},
	}
	run := func() *Report {
		rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "tl2", Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	wantAttempts := []int64{150, 300} // MaxOps * phase threads
	for i := range a.Phases {
		ra, rb := a.Phases[i].Result, b.Phases[i].Result
		if ra.TotalAttempted() != wantAttempts[i] {
			t.Errorf("phase %d attempted %d, want %d", i, ra.TotalAttempted(), wantAttempts[i])
		}
		for name, opA := range ra.PerOp {
			opB := rb.PerOp[name]
			if opB == nil || opA.Attempted() != opB.Attempted() {
				t.Errorf("phase %d op %s: attempts differ between identical runs", i, name)
			}
		}
	}
}

// TestPhaseEngineStatsReset checks phases report their own engine
// activity, not cumulative totals: a long phase followed by a short one
// must show MORE commits in the long phase.
func TestPhaseEngineStatsReset(t *testing.T) {
	sc := &Scenario{
		Name: "reset",
		Phases: []Phase{
			{Name: "long", Options: harness.Options{MaxOps: 500, Workload: ops.ReadWrite, StructureMods: true}},
			{Name: "short", Options: harness.Options{MaxOps: 50, Workload: ops.ReadWrite, StructureMods: true}},
		},
	}
	rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "tl2", Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	long, short := rep.Phases[0].Result.EngineStats, rep.Phases[1].Result.EngineStats
	if long.Commits == 0 || short.Commits == 0 {
		t.Fatalf("phases without commits: %d, %d", long.Commits, short.Commits)
	}
	if short.Commits >= long.Commits {
		t.Errorf("short phase reports %d commits >= long phase's %d — stats look cumulative",
			short.Commits, long.Commits)
	}
}

// TestScenarioSharesStructureAcrossPhases: phase 2 must observe the
// structure (not a rebuild): the scenario's structure is built once, so
// repeated scenarios with the same seed start identically.
func TestScenarioRunsAreReproducible(t *testing.T) {
	sc, _ := Builtin("smoke")
	// Only the closed MaxOps conversion is deterministic; here we just
	// assert the run succeeds twice with CheckInvariants on, proving
	// phase transitions leave a consistent structure.
	for i := 0; i < 2; i++ {
		if _, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "ostm", Threads: 2, CheckInvariants: true}, TimeScale: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Name: "v", Phases: []Phase{
			{Name: "p", Options: harness.Options{Duration: time.Second, StructureMods: true}},
		}}
	}
	cases := []struct {
		name string
		mod  func(*Scenario)
		want string
	}{
		{"empty name", func(sc *Scenario) { sc.Name = "" }, "empty name"},
		{"no phases", func(sc *Scenario) { sc.Phases = nil }, "no phases"},
		{"unnamed phase", func(sc *Scenario) { sc.Phases[0].Name = "" }, "no name"},
		{"zero duration", func(sc *Scenario) { sc.Phases[0].Duration = 0 }, "positive duration or max_ops"},
		{"both lengths", func(sc *Scenario) { sc.Phases[0].MaxOps = 10 }, "exactly one of duration and max_ops"},
		{"negative duration", func(sc *Scenario) { sc.Phases[0].Duration = -time.Second }, "negative duration"},
		{"skew too big", func(sc *Scenario) { sc.Phases[0].SkewTheta = 1 }, "outside [0, 1)"},
		{"shift too big", func(sc *Scenario) { sc.Phases[0].SkewShift = 1.5 }, "outside [0, 1)"},
		{"open loop without rate", func(sc *Scenario) { sc.Phases[0].OpenLoop = true }, "ArrivalRate > 0"},
		{"rate without open loop", func(sc *Scenario) { sc.Phases[0].ArrivalRate = 100 }, "closed-loop"},
		{"negative weight", func(sc *Scenario) {
			sc.Phases[0].CategoryWeights = map[ops.Category]float64{ops.ShortOperation: -1}
		}, "negative weight"},
		{"zero-sum weights", func(sc *Scenario) {
			sc.Phases[0].CategoryWeights = map[ops.Category]float64{ops.ShortOperation: 0}
		}, "positive share"},
		{"unknown category", func(sc *Scenario) {
			sc.Phases[0].CategoryWeights = map[ops.Category]float64{ops.Category(9): 1}
		}, "unknown category"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mod(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("spike"); err != nil {
		t.Errorf("builtin lookup failed: %v", err)
	}
	if _, err := Lookup("definitely-not-a-scenario"); err == nil {
		t.Error("bogus lookup succeeded")
	}
}

func TestWriteReportSections(t *testing.T) {
	sc, _ := Builtin("smoke")
	rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "tl2", Threads: 2}, TimeScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{
		`Scenario "smoke"`,
		"phase", "mode", "ops/s", "p99[ms]",
		"closed", "open@2000/s", "θ=0.90",
		"Cross-phase comparison",
		"throughput:",
		"response p99:",
		"elapsed:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportAbortCauseColumns feeds WriteReport a synthetic report so the
// per-phase abort-cause breakdown (cfl/tmo/inj columns) is checked against
// known counter values, not a timing-dependent run.
func TestReportAbortCauseColumns(t *testing.T) {
	sc := &Scenario{Name: "causes", Phases: []Phase{
		{Name: "storm", Options: harness.Options{Threads: 2, Duration: time.Second, Workload: ops.WriteDominated}},
	}}
	res := &harness.Result{
		Options: harness.Options{Threads: 2, Workload: ops.WriteDominated},
		Elapsed: time.Second,
		EngineStats: stm.Stats{
			Commits:        1000,
			ConflictAborts: 123,
			TimeoutAborts:  45,
			InjectedFaults: 67,
		},
	}
	rep := &Report{Scenario: sc, Strategy: "norec", Phases: []PhaseResult{{Phase: sc.Phases[0], Result: res}}}
	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{
		"cfl", "tmo", "inj", // the breakdown columns
		"123", "45", "67", // the per-phase counter values
		"engine: norec\n", // the configuration echo
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestValidateRejectsDisabledWeightMass: weights whose whole mass sits on
// categories the phase's flags disable would leave the picker empty (a
// runtime panic); Validate must reject them up front.
func TestValidateRejectsDisabledWeightMass(t *testing.T) {
	sc := &Scenario{Name: "w", Phases: []Phase{{
		Name: "p",
		Options: harness.Options{
			Duration: time.Second,
			// StructureMods false, but all weight on SM.
			CategoryWeights: map[ops.Category]float64{ops.StructureModification: 1},
		},
	}}}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "no enabled operation") {
		t.Errorf("disabled-only weights accepted: %v", err)
	}
	// The same weights are fine once the category is enabled.
	sc.Phases[0].StructureMods = true
	if err := sc.Validate(); err != nil {
		t.Errorf("enabled weights rejected: %v", err)
	}
	// Long traversals: enabled flag is not enough under Reduced.
	sc.Phases[0].CategoryWeights = map[ops.Category]float64{ops.LongTraversal: 1}
	sc.Phases[0].LongTraversals = true
	sc.Phases[0].Reduced = true
	if err := sc.Validate(); err == nil {
		t.Error("reduced profile with long-traversal-only weights accepted")
	}
}

// TestRunOptionsCarryOSTMKnobs: the OSTM ablation options must reach the
// executor (visible-reads mode performs zero validations, the default
// invisible-reads mode performs many).
func TestRunOptionsCarryOSTMKnobs(t *testing.T) {
	sc := &Scenario{Name: "knobs", Phases: []Phase{
		{Name: "p", Options: harness.Options{MaxOps: 200, Workload: ops.ReadWrite, StructureMods: true}},
	}}
	def, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "ostm", Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	vis, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "ostm", Threads: 2, Engine: mustOpts(t, "visible")}})
	if err != nil {
		t.Fatal(err)
	}
	if def.Phases[0].Result.EngineStats.Validations == 0 {
		t.Error("default OSTM run performed no validations")
	}
	if got := vis.Phases[0].Result.EngineStats.Validations; got != 0 {
		t.Errorf("visible-reads run performed %d validations, want 0 — knob not plumbed", got)
	}
}

// TestRunOptionsCarryMetadataKnobs: the engine options must reach the
// engine — a TL2 run completes with the options the run asked for — and a
// key the scenario sets overrides the run's.
func TestRunOptionsCarryMetadataKnobs(t *testing.T) {
	sc := &Scenario{Name: "meta", Phases: []Phase{
		{Name: "p", Options: harness.Options{MaxOps: 100, Workload: ops.ReadWrite, StructureMods: true}},
	}}
	rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "tl2", Threads: 2, Engine: mustOpts(t, "deadline=25ms,retries=50")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Phases[0].Result.Options.Engine.String(); got != "deadline=25ms,retries=50" {
		t.Errorf("engine = %q, want deadline=25ms,retries=50 — knob not plumbed", got)
	}

	// A scenario that pins its own key overrides the run.
	pinned := &Scenario{Name: "meta-pinned", Engine: "retries=100", Phases: sc.Phases}
	rep2, err := Run(pinned, RunOptions{Options: harness.Options{Strategy: "tl2", Threads: 2, Engine: mustOpts(t, "deadline=25ms,retries=50")}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep2.Phases[0].Result.Options.Engine.String(); got != "deadline=25ms,retries=100" {
		t.Errorf("scenario override: engine = %q, want deadline=25ms,retries=100", got)
	}
}

func TestValidateRejectsBadMetadata(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{Name: "m", Phases: []Phase{{Name: "p", Options: harness.Options{MaxOps: 1}}}}
	}
	for _, engine := range []string{"word", "striped", "shards=4", "versions=2", "retries=-1"} {
		sc := base()
		sc.Engine = engine
		if err := sc.Validate(); err == nil {
			t.Errorf("bad engine %q accepted", engine)
		}
	}
}

// TestWriteReportSnapshotColumn: the per-phase table carries the snapshot
// restart column, and the engine line echoes the scenario's pinned key.
func TestWriteReportSnapshotColumn(t *testing.T) {
	sc := &Scenario{Name: "snap-report", Engine: "retries=100", Phases: []Phase{
		{Name: "p", Options: harness.Options{MaxOps: 200, Workload: ops.ReadWrite, StructureMods: true}},
	}}
	rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "norec", Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{"engine: norec:retries=100\n", "snapRst"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioEngineOverlay pins the overlay rule: a key the scenario's
// "engine" sets overrides the run's spec, an unset key inherits it, and
// "nosnap=off" turns a run-level nosnap off. Every phase's options name the
// resolved configuration — the one the executor was built with.
func TestScenarioEngineOverlay(t *testing.T) {
	phases := []Phase{{Name: "p", Options: harness.Options{MaxOps: 20, Workload: ops.ReadWrite, StructureMods: true}}}
	run := RunOptions{Options: harness.Options{Strategy: "norec", Threads: 1, Engine: mustOpts(t, "deadline=5s,retries=50,nosnap")}}
	for _, c := range []struct{ overlay, want string }{
		{"", "norec:deadline=5s,retries=50,nosnap"},
		{"retries=100", "norec:deadline=5s,retries=100,nosnap"},
		{"nosnap=off", "norec:deadline=5s,retries=50"},
		{"serial,deadline=0", "norec:retries=50,serial,nosnap"},
	} {
		rep, err := Run(&Scenario{Name: "overlay", Engine: c.overlay, Phases: phases}, run)
		if err != nil {
			t.Fatalf("overlay %q: %v", c.overlay, err)
		}
		o := rep.Phases[0].Result.Options
		if got := (stm.EngineSpec{Name: o.Strategy, Options: o.Engine}).String(); got != c.want {
			t.Errorf("overlay %q over %s resolved to %s, want %s", c.overlay, run.Engine, got, c.want)
		}
		var sb strings.Builder
		WriteReport(&sb, rep)
		if want := "  engine: " + c.want + "\n"; !strings.Contains(sb.String(), want) {
			t.Errorf("overlay %q: report missing %q:\n%s", c.overlay, want, sb.String())
		}
	}
}

// TestValidateRejectsRunLevelFields: Run sets a phase's run-level options
// from RunOptions, so a phase that sets one would be silently overridden;
// Validate rejects it instead.
func TestValidateRejectsRunLevelFields(t *testing.T) {
	for name, mod := range map[string]func(*harness.Options){
		"params":     func(o *harness.Options) { o.Params = core.Tiny() },
		"seed":       func(o *harness.Options) { o.Seed = 7 },
		"strategy":   func(o *harness.Options) { o.Strategy = "tl2" },
		"engine":     func(o *harness.Options) { o.Engine.MaxRetries = 2 },
		"sampling":   func(o *harness.Options) { o.SampleInterval = time.Millisecond },
		"histograms": func(o *harness.Options) { o.CollectHistograms = true },
		"invariants": func(o *harness.Options) { o.CheckInvariants = true },
	} {
		sc := &Scenario{Name: "v", Phases: []Phase{{Name: "p", Options: harness.Options{MaxOps: 1}}}}
		mod(&sc.Phases[0].Options)
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "run-level") {
			t.Errorf("%s: err = %v, want a run-level rejection", name, err)
		}
	}
}
