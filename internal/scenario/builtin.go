package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ops"
)

// The built-in scenario library. Durations are tuned so a full scenario
// takes a second or two at TimeScale 1; CI and tests shrink them with
// RunOptions.TimeScale.
var builtins = map[string]*Scenario{}

// RegisterBuiltin adds a scenario to the built-in library. It panics on
// an invalid scenario or a duplicate name — programming errors, caught at
// init time.
func RegisterBuiltin(sc *Scenario) {
	if err := sc.Validate(); err != nil {
		panic("scenario: RegisterBuiltin: " + err.Error())
	}
	if _, dup := builtins[sc.Name]; dup {
		panic("scenario: duplicate builtin " + sc.Name)
	}
	builtins[sc.Name] = sc
}

// Builtin returns the named built-in scenario.
func Builtin(name string) (*Scenario, bool) {
	sc, ok := builtins[name]
	return sc, ok
}

// Names lists the built-in scenarios, sorted.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
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

func init() {
	// steady: two identical read-write phases — the baseline sanity
	// scenario. With per-phase engine-stat resets the two rows should
	// match; a large spread means warmup effects or interference.
	RegisterBuiltin(&Scenario{
		Name:        "steady",
		Description: "two identical read-write phases; rows should match (stability check)",
		Phases: []Phase{
			{Name: "first", Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true},
			{Name: "second", Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true},
		},
	})

	// ramp-up: thread count doubles each phase at a fixed mix — the
	// scalability curve as a scenario.
	RegisterBuiltin(&Scenario{
		Name:        "ramp-up",
		Description: "read-write mix at 1, 2, 4 then 8 workers (scalability curve)",
		Phases: []Phase{
			{Name: "t1", Duration: 400 * time.Millisecond, Threads: 1, Workload: ops.ReadWrite, StructureMods: true},
			{Name: "t2", Duration: 400 * time.Millisecond, Threads: 2, Workload: ops.ReadWrite, StructureMods: true},
			{Name: "t4", Duration: 400 * time.Millisecond, Threads: 4, Workload: ops.ReadWrite, StructureMods: true},
			{Name: "t8", Duration: 400 * time.Millisecond, Threads: 8, Workload: ops.ReadWrite, StructureMods: true},
		},
	})

	// spike: open-loop load that quadruples for a phase and then
	// returns to base. The response-time percentiles (queueing
	// included) show whether the engine absorbs or amplifies the spike;
	// a closed loop would hide exactly that.
	RegisterBuiltin(&Scenario{
		Name:        "spike",
		Description: "open-loop base load, a 4x arrival spike, then recovery (response time under overload)",
		Phases: []Phase{
			{Name: "base", Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 1500},
			{Name: "spike", Duration: 400 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 6000},
			{Name: "recover", Duration: 600 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, OpenLoop: true, ArrivalRate: 1500},
		},
	})

	// read-burst-write-storm: a traversal-heavy read burst followed by
	// an update-heavy storm with structure modifications — the
	// time-varying heterogeneous load Helenos argues TM benchmarks
	// need.
	RegisterBuiltin(&Scenario{
		Name:        "read-burst-write-storm",
		Description: "traversal-heavy read burst, then an SM-heavy write storm (mix flip mid-run)",
		Phases: []Phase{
			{
				Name: "read-burst", Duration: 600 * time.Millisecond,
				Workload: ops.ReadDominated, StructureMods: true,
				Weights: map[ops.Category]float64{ops.ShortTraversal: 7, ops.ShortOperation: 3},
			},
			{
				Name: "write-storm", Duration: 600 * time.Millisecond,
				Workload: ops.WriteDominated, StructureMods: true,
				Weights: map[ops.Category]float64{ops.ShortOperation: 5, ops.StructureModification: 5},
			},
		},
	})

	// hotspot-migration: an identical skewed mix whose zipfian hotspot
	// moves across the composite-part domain each phase — caches and
	// contention managers that latched onto the old hot set get
	// re-tested.
	RegisterBuiltin(&Scenario{
		Name:        "hotspot-migration",
		Description: "zipfian hotspot (theta 0.95) over composite parts, migrating each phase",
		Phases: []Phase{
			{Name: "hot-left", Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95},
			{Name: "hot-mid", Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95, SkewShift: 0.33},
			{Name: "hot-right", Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95, SkewShift: 0.66},
		},
	})

	// engine-sweep: the canonical three-workload sweep as one scenario.
	// Run it once per engine (-scenario engine-sweep -g NAME) and
	// compare rows across engines — the Synchrobench-style ranking-flip
	// probe.
	RegisterBuiltin(&Scenario{
		Name:        "engine-sweep",
		Description: "read-dominated, read-write then write-dominated phases; run per engine and compare",
		Phases: []Phase{
			{Name: "read", Duration: 500 * time.Millisecond, Workload: ops.ReadDominated, LongTraversals: true, StructureMods: true},
			{Name: "mixed", Duration: 500 * time.Millisecond, Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true},
			{Name: "write", Duration: 500 * time.Millisecond, Workload: ops.WriteDominated, LongTraversals: true, StructureMods: true},
		},
	})

	// orec-pressure: a zipfian hotspot hammering a deliberately small
	// striped orec table with a sharded commit clock — the end-to-end
	// exercise of the metadata axes. The read phase shows striping's
	// read-side false conflicts (stripe version bumps under TL2, stripe
	// ownership under visible-reads OSTM), the write storm its
	// write-write collisions; compare the same scenario per engine and
	// against a -g tl2 (object granularity) run of the same phases to price the metadata footprint.
	RegisterBuiltin(&Scenario{
		Name:        "orec-pressure",
		Description: "skewed load on a small striped orec table (256 stripes, 4 clock shards): false-conflict pressure",
		Engine:      "striped=256,shards=4",
		Phases: []Phase{
			{Name: "warm", Duration: 300 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true, SkewTheta: 0.9},
			{
				Name: "hot-read", Duration: 500 * time.Millisecond,
				Workload: ops.ReadDominated, StructureMods: true, SkewTheta: 0.95,
				Weights: map[ops.Category]float64{ops.ShortTraversal: 6, ops.ShortOperation: 4},
			},
			{
				Name: "hot-write", Duration: 500 * time.Millisecond,
				Workload: ops.WriteDominated, StructureMods: true, SkewTheta: 0.95,
				Weights: map[ops.Category]float64{ops.ShortOperation: 6, ops.StructureModification: 4},
			},
			{Name: "migrated", Duration: 400 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.95, SkewShift: 0.5},
		},
	})

	// chaos-storm: the robustness exercise — every phase runs under a
	// seeded fault plan (commit-path stalls plus forced aborts) and a
	// transaction deadline. The storm phase is a skewed write-heavy mix
	// where injected aborts and deadline pressure bite hardest; squall
	// adds open-loop overload with shedding (a lateness budget and a
	// bounded queue), so the report shows shed rate next to timeout
	// aborts; drain returns to a light read mix to confirm recovery.
	// Run with -g ENGINE:serial to see the same storm complete without a
	// single surfaced abort.
	RegisterBuiltin(&Scenario{
		Name:        "chaos-storm",
		Description: "seeded fault injection + 25ms tx deadline through a write storm and an open-loop squall with shedding",
		Engine:      "deadline=25ms,faults=seed=7,precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,abort:1/24",
		Phases: []Phase{
			{Name: "warm", Duration: 300 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true},
			{
				Name: "storm", Duration: 500 * time.Millisecond,
				Workload: ops.WriteDominated, StructureMods: true, SkewTheta: 0.9,
				Weights: map[ops.Category]float64{ops.ShortOperation: 6, ops.StructureModification: 4},
			},
			{
				Name: "squall", Duration: 500 * time.Millisecond,
				Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.9,
				OpenLoop: true, ArrivalRate: 4000,
				ShedAfter: 2 * time.Millisecond, QueueBound: 512,
			},
			{Name: "drain", Duration: 300 * time.Millisecond, Workload: ops.ReadDominated, StructureMods: true},
		},
	})

	// smoke: the CI scenario — one closed and one skewed open-loop
	// phase, short enough to run per engine on every push.
	RegisterBuiltin(&Scenario{
		Name:        "smoke",
		Description: "CI smoke: one closed-loop and one skewed open-loop phase, ~0.6s total",
		Phases: []Phase{
			{Name: "closed", Duration: 300 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true},
			{Name: "open", Duration: 300 * time.Millisecond, Workload: ops.ReadWrite, StructureMods: true, SkewTheta: 0.9, OpenLoop: true, ArrivalRate: 2000},
		},
	})
}
