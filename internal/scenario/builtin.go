package scenario

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/ops"
)

// Builtin returns the named built-in scenario.
func Builtin(name string) (*Scenario, bool) {
	for _, sc := range builtins {
		if sc.Name == name {
			return sc, true
		}
	}
	return nil, false
}

// Names lists the built-in scenarios, sorted.
func Names() []string {
	names := make([]string, len(builtins))
	for i, sc := range builtins {
		names[i] = sc.Name
	}
	slices.Sort(names)
	return names
}

// Lookup resolves a -scenario argument: a built-in name, else a path to a
// JSON scenario file.
func Lookup(nameOrPath string) (*Scenario, error) {
	if sc, ok := Builtin(nameOrPath); ok {
		return sc, nil
	}
	if _, err := os.Stat(nameOrPath); err == nil {
		return ParseFile(nameOrPath)
	}
	return nil, fmt.Errorf("scenario: %q is neither a builtin (%s) nor a readable file",
		nameOrPath, strings.Join(Names(), ", "))
}

// The built-in scenario library. Durations are tuned so a full scenario
// takes a second or two at TimeScale 1; CI and tests shrink them with
// RunOptions.TimeScale.
var builtins = []*Scenario{
	// spike: open-loop load that quadruples for a phase and then
	// returns to base. The response-time percentiles (queueing
	// included) show whether the engine absorbs or amplifies the spike;
	// a closed loop would hide exactly that.
	{
		Name:        "spike",
		Description: "open-loop base load, a 4x arrival spike, then recovery (response time under overload)",
		Phases: []Phase{
			{Name: "base", Options: harness.Options{Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 1500}},
			{Name: "spike", Options: harness.Options{Duration: 400 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 6000}},
			{Name: "recover", Options: harness.Options{Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 1500}},
		},
	},

	// read-burst-write-storm: a traversal-heavy read burst followed by
	// an update-heavy storm with structure modifications — the
	// time-varying heterogeneous load Helenos argues TM benchmarks
	// need.
	{
		Name:        "read-burst-write-storm",
		Description: "traversal-heavy read burst, then an SM-heavy write storm (mix flip mid-run)",
		Phases: []Phase{
			{Name: "read-burst", Options: harness.Options{
				Duration: 600 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true,
				CategoryWeights: map[ops.Category]float64{ops.ShortTraversal: 7, ops.ShortOperation: 3},
			}},
			{Name: "write-storm", Options: harness.Options{
				Duration: 600 * time.Millisecond, Workload: ops.WriteDominated, StructureMods: true,
				CategoryWeights: map[ops.Category]float64{ops.ShortOperation: 5, ops.StructureModification: 5},
			}},
		},
	},

	// hotspot-migration: an identical skewed mix whose zipfian hotspot
	// moves across the composite-part domain each phase — caches and
	// contention managers that latched onto the old hot set get
	// re-tested.
	{
		Name:        "hotspot-migration",
		Description: "zipfian hotspot (theta 0.95) over composite parts, migrating each phase",
		Phases: []Phase{
			{Name: "hot-left", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95}},
			{Name: "hot-mid", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95, SkewShift: 0.33}},
			{Name: "hot-right", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95, SkewShift: 0.66}},
		},
	},

	// engine-sweep: the canonical three-workload sweep as one scenario.
	// Run it once per engine (-scenario engine-sweep -g NAME) and
	// compare rows across engines — the Synchrobench-style ranking-flip
	// probe.
	{
		Name:        "engine-sweep",
		Description: "read-dominated, read-write then write-dominated phases; run per engine and compare",
		Phases: []Phase{
			{Name: "read", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.ReadDominated, LongTraversals: true, StructureMods: true}},
			{Name: "mixed", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true}},
			{Name: "write", Options: harness.Options{Duration: 500 * time.Millisecond, Workload: ops.WriteDominated, LongTraversals: true, StructureMods: true}},
		},
	},

	// chaos-storm: the robustness exercise — every phase runs under a
	// seeded fault plan (commit-path stalls plus forced aborts) and a
	// transaction deadline. The storm phase is a skewed write-heavy mix
	// where injected aborts and deadline pressure bite hardest; squall
	// adds open-loop overload with shedding (a lateness budget and a
	// bounded queue), so the report shows shed rate next to timeout
	// aborts; drain returns to a light read mix to confirm recovery.
	// Run with -g ENGINE:serial to see the same storm complete without a
	// single surfaced abort.
	{
		Name:        "chaos-storm",
		Description: "seeded fault injection + 25ms tx deadline through a write storm and an open-loop squall with shedding",
		Engine:      "deadline=25ms,faults=seed=7,precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,abort:1/24",
		Phases: []Phase{
			{Name: "warm", Options: harness.Options{Duration: 300 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true}},
			{Name: "storm", Options: harness.Options{
				Duration: 500 * time.Millisecond, Workload: ops.WriteDominated, StructureMods: true, SkewTheta: 0.9,
				CategoryWeights: map[ops.Category]float64{ops.ShortOperation: 6, ops.StructureModification: 4},
			}},
			{Name: "squall", Options: harness.Options{
				Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.9,
				OpenLoop: true, ArrivalRate: 4000, ShedAfter: 2 * time.Millisecond, QueueBound: 512,
			}},
			{Name: "drain", Options: harness.Options{Duration: 300 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true}},
		},
	},

	// smoke: the CI scenario — one closed and one skewed open-loop
	// phase, short enough to run per engine on every push.
	{
		Name:        "smoke",
		Description: "CI smoke: one closed-loop and one skewed open-loop phase, ~0.6s total",
		Phases: []Phase{
			{Name: "closed", Options: harness.Options{Duration: 300 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true}},
			{Name: "open", Options: harness.Options{Duration: 300 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.9, OpenLoop: true, ArrivalRate: 2000}},
		},
	},
}
