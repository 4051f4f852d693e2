package stmbench7_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	stmbench7 "repro"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/stm"
)

// ExampleRun executes a tiny deterministic benchmark and prints headline
// numbers from the result.
func ExampleRun() {
	res, err := stmbench7.Run(stmbench7.Options{
		Params:          stmbench7.TinyParams(),
		Threads:         1,
		MaxOps:          100, // operation-count mode: deterministic
		Seed:            42,
		Workload:        stmbench7.ReadWrite,
		LongTraversals:  true,
		StructureMods:   true,
		Strategy:        "tl2",
		CheckInvariants: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("attempted:", res.TotalAttempted())
	fmt.Println("all operations accounted:", res.TotalAttempted() == 100)
	// Output:
	// attempted: 100
	// all operations accounted: true
}

// ExampleRun_optimizedLayout runs the layout change §5 of the paper sketches
// as what one would have to do to use an STM well: each composite part's
// atomic-part states grouped in one object. The run checks the structure's
// invariants at the end, so a layout the operations or the builder break
// fails here. The paper's point is the punchline: the grouped layout is
// faster (BenchmarkAblationGrouping times it), but needing it at all "weakens
// the main selling point of the STM technology — namely, that it makes
// implementing scalable concurrent data structures easy."
func ExampleRun_optimizedLayout() {
	params := stmbench7.TinyParams()
	params.GroupAtomicParts = true
	res, err := stmbench7.Run(stmbench7.Options{
		Params:          params,
		Threads:         2,
		MaxOps:          100, // per thread
		Seed:            42,
		Workload:        stmbench7.ReadWrite,
		LongTraversals:  true,
		StructureMods:   true,
		Strategy:        "tl2",
		CheckInvariants: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("attempted:", res.TotalAttempted())
	// Output:
	// attempted: 200
}

// Example_stm shows the stm package on its own: a transaction that moves
// funds atomically between two cells.
func Example_stm() {
	eng := stm.NewTL2(stm.EngineOptions{})
	a := stm.NewCell(eng.VarSpace(), 70)
	b := stm.NewCell(eng.VarSpace(), 30)

	err := eng.Atomic(func(tx stm.Tx) error {
		amount := 25
		a.Update(tx, func(v int) int { return v - amount })
		b.Update(tx, func(v int) int { return v + amount })
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eng.Atomic(func(tx stm.Tx) error {
		fmt.Println("a:", a.Get(tx), "b:", b.Get(tx), "total:", a.Get(tx)+b.Get(tx))
		return nil
	})
	// Output:
	// a: 45 b: 55 total: 100
}

// ExampleSetup embeds the benchmark in an application of the class the
// paper motivates it with, a CAD/CAM tool. Instead of the harness's
// ratio-driven mix, each role drives its own operation stream on the
// executor and structure Setup returns, all at once on TL2: designers
// inspect and edit composite parts and restructure assemblies, a viewer
// renders (long read-only traversals) and an indexer answers queries.
// Each thread runs a fixed number of operations, so the counts printed are
// deterministic; which random-id lookups miss is not, so they count as run
// either way.
func ExampleSetup() {
	ex, s, err := stmbench7.Setup(stmbench7.Options{Params: stmbench7.TinyParams(), Seed: 7, Strategy: "tl2"})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	roles := []struct {
		name             string
		opNames          []string
		threads, opsEach int
	}{
		{"designer", []string{"ST1", "ST6", "ST9", "ST10", "OP9", "SM3", "SM4", "SM5"}, 3, 200},
		{"viewer", []string{"T1", "T4", "Q6"}, 1, 20},
		{"indexer", []string{"OP1", "OP2", "OP3", "Q7", "ST4"}, 2, 200},
	}
	ran := make([]atomic.Int64, len(roles))
	var mu sync.Mutex
	var failures []error
	var wg sync.WaitGroup
	for ri, rl := range roles {
		for t := range rl.threads {
			wg.Add(1)
			go func(r *rng.Rand) {
				defer wg.Done()
				for range rl.opsEach {
					op, _ := ops.ByName(rl.opNames[r.Intn(len(rl.opNames))])
					if _, err := ex.Execute(op, s, r); err != nil && !errors.Is(err, ops.ErrFailed) {
						mu.Lock()
						failures = append(failures, fmt.Errorf("%s: %w", rl.name, err))
						mu.Unlock()
						return
					}
					ran[ri].Add(1)
				}
			}(rng.New(uint64(ri*100 + t + 1)))
		}
	}
	wg.Wait()
	if err := errors.Join(failures...); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("CAD workspace on", ex.Name())
	for ri, rl := range roles {
		fmt.Printf("  %-8s %d threads, %d operations\n", rl.name, rl.threads, ran[ri].Load())
	}
	err = ex.Engine().Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) })
	fmt.Println("  structural invariants hold:", err == nil)
	// Output:
	// CAD workspace on tl2
	//   designer 3 threads, 600 operations
	//   viewer   1 threads, 20 operations
	//   indexer  2 threads, 400 operations
	//   structural invariants hold: true
}

// ExampleParseWorkload demonstrates the Appendix-A workload notation.
func ExampleParseWorkload() {
	for _, s := range []string{"r", "rw", "w"} {
		w, _ := stmbench7.ParseWorkload(s)
		fmt.Println(s, "->", w)
	}
	// Output:
	// r -> read-dominated
	// rw -> read-write
	// w -> write-dominated
}

// ExampleLookupScenario runs a built-in scenario: the open-loop arrival
// spike on TL2, with every phase duration scaled down to a twentieth. The
// phase table of WriteScenarioReport shows how far p99 response time
// (queueing included) degrades during the spike; here only each phase's
// name and offered load are printed, because timings vary from run to run.
func ExampleLookupScenario() {
	spike, err := stmbench7.LookupScenario("spike")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := stmbench7.RunScenario(spike, stmbench7.ScenarioRunOptions{
		Options: stmbench7.Options{
			Params:   stmbench7.TinyParams(),
			Strategy: "tl2",
			Threads:  2,
		},
		TimeScale: 0.05,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, pr := range rep.Phases {
		fmt.Printf("%s: open loop at %.0f ops/s\n", pr.Phase.Name, pr.Phase.ArrivalRate)
	}
	// Output:
	// base: open loop at 1500 ops/s
	// spike: open loop at 6000 ops/s
	// recover: open loop at 1500 ops/s
}

// ExampleRunScenario declares a scenario in Go: a calm read phase, a write
// storm whose zipfian draws hammer a hotspot of composite parts, and an
// open-loop probe that measures response time under a fixed offered load.
// Each phase is a name and the harness Options of that phase's run;
// MaxOps phases run an exact operation count, so the counts below repeat.
func ExampleRunScenario() {
	custom := &stmbench7.Scenario{
		Name:        "calm-storm-probe",
		Description: "read calm, skewed write storm, open-loop response probe",
		Phases: []stmbench7.ScenarioPhase{
			{Name: "calm", Options: stmbench7.Options{
				MaxOps: 100, Workload: stmbench7.ReadDominated, StructureMods: true,
			}},
			{Name: "storm", Options: stmbench7.Options{
				MaxOps: 100, Workload: stmbench7.WriteDominated, StructureMods: true,
				CategoryWeights: map[stmbench7.OperationCategory]float64{
					stmbench7.ShortOperation:        3,
					stmbench7.StructureModification: 1,
				},
				SkewTheta: 0.95,
			}},
			{Name: "probe", Options: stmbench7.Options{
				MaxOps: 100, Workload: stmbench7.ReadWrite, StructureMods: true,
				OpenLoop: true, ArrivalRate: 20000,
			}},
		},
	}
	rep, err := stmbench7.RunScenario(custom, stmbench7.ScenarioRunOptions{
		Options: stmbench7.Options{
			Params:          stmbench7.TinyParams(),
			Strategy:        "norec",
			Threads:         2,
			CheckInvariants: true,
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, pr := range rep.Phases {
		fmt.Printf("%s: %d operations\n", pr.Phase.Name, pr.Result.TotalAttempted())
	}
	// Output:
	// calm: 200 operations
	// storm: 200 operations
	// probe: 200 operations
}

// ExampleParseScenario loads the JSON format the CLI's -scenario FILE flag
// takes: a "defaults" object layered under every phase, here a workload
// flip with a hotspot that migrates between the two phases.
func ExampleParseScenario() {
	sc, err := stmbench7.ParseScenario([]byte(`{
		"name": "from-json",
		"description": "workload flip with a migrating hotspot",
		"defaults": {"threads": 2, "skew": 0.9, "max_ops": 50},
		"phases": [
			{"name": "left", "workload": "rw"},
			{"name": "right", "workload": "w", "skew_shift": 0.5}
		]
	}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := stmbench7.RunScenario(sc, stmbench7.ScenarioRunOptions{
		Options: stmbench7.Options{
			Params:   stmbench7.TinyParams(),
			Strategy: "ostm",
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, pr := range rep.Phases {
		ph := pr.Phase
		fmt.Printf("%s: %v, hotspot at %.1f, %d operations\n", ph.Name, ph.Workload, ph.SkewShift, pr.Result.TotalAttempted())
	}
	// Output:
	// left: read-write, hotspot at 0.0, 100 operations
	// right: write-dominated, hotspot at 0.5, 100 operations
}
