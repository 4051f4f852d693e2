package stmbench7_test

import (
	"fmt"

	stmbench7 "repro"
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

// ExampleRun_optimizedLayout runs the two layout changes §5 of the paper
// sketches as what one would have to do to use an STM well: the manual split
// into chunks, and each composite part's atomic-part states grouped in one
// object. The run checks the structure's invariants at the end, so a layout
// the operations or the builder break fails here. The paper's point is the
// punchline: the optimized layout is faster (BenchmarkAblationGrouping and
// BenchmarkAblationChunkedManual time it), but needing it at all "weakens the
// main selling point of the STM technology — namely, that it makes
// implementing scalable concurrent data structures easy."
func ExampleRun_optimizedLayout() {
	params := stmbench7.TinyParams()
	params.ManualChunks = 8
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
	eng := stm.NewTL2()
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
