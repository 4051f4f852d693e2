package ops

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// Allocation budgets of the date-range operations and the text kernels. The
// scans apply their callback as the index walk reaches each part, so nothing
// about them is proportional to the number of parts in range except what the
// callback itself publishes.
//
// Single-threaded with GC disabled, like stm/alloc_test.go: no concurrent
// commit forces a retry and no collection empties the descriptor pools
// between runs.

// firstWriteAllocs is what a transaction's first write of one Var costs on
// each engine (stm/alloc_test.go's allocBudget): the private copy plus the
// box that publishes it, plus OSTM's locator; direct edits in place.
var firstWriteAllocs = map[string]float64{"direct": 0, "norec": 2, "tl2": 2, "ostm": 3}

func TestDateRangeOpsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range stm.Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := stm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(1)
			var parts int
			body := func(opName string) func(stm.Tx) error {
				op, _ := ByName(opName)
				return func(tx stm.Tx) error {
					n, err := op.Run(tx, s, r)
					parts = n
					return err
				}
			}
			measure := func(f func()) float64 {
				f() // grow the pooled descriptor's sets to this operation's size
				return testing.AllocsPerRun(50, f)
			}
			for _, opName := range []string{"OP2", "OP3"} {
				fn := body(opName)
				if got := measure(func() { stm.RunReadOnly(eng, fn) }); got != 0 || parts == 0 {
					t.Errorf("%s over %d parts in RunReadOnly: %v allocs, want 0", opName, parts, got)
				}
				if got := measure(func() { eng.Atomic(fn) }); got != 0 {
					t.Errorf("%s over %d parts in Atomic: %v allocs, want 0", opName, parts, got)
				}
			}
			// OP10 writes every part in range once: first-touch copies and
			// nothing else — no slice of the parts, no closure on the heap.
			fn := body("OP10")
			got := measure(func() { eng.Atomic(fn) })
			if want := firstWriteAllocs[name] * float64(parts); got != want || parts == 0 {
				t.Errorf("OP10 over %d parts: %v allocs, want %v (%v per part written)", parts, got, want, firstWriteAllocs[name])
			}
		})
	}
}

func TestTextSwapsAllocateOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	man, doc := core.ManualText(1, 40000), core.DocumentText(1, 1000)
	manLower, _ := core.SwapCase(man)
	docSwapped, _ := core.SwapIAm(doc)
	var sink string
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"SwapCase I->i", func() { sink, _ = core.SwapCase(man) }},
		{"SwapCase i->I", func() { sink, _ = core.SwapCase(manLower) }},
		{"SwapIAm I am->This is", func() { sink, _ = core.SwapIAm(doc) }},
		{"SwapIAm This is->I am", func() { sink, _ = core.SwapIAm(docSwapped) }},
	} {
		if got := testing.AllocsPerRun(20, c.f); got != 1 {
			t.Errorf("%s: %v allocs, want 1", c.name, got)
		}
	}
	_ = sink
}

// TestST4Allocations holds ST4 — a hundred title lookups — to what it
// allocated before it built a hundred title strings and a map to do them: the
// title is built in a buffer on the operation's stack, the lookup does not
// let it escape, and the seen-set is the pooled scratch.
func TestST4Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st4, _ := ByName("ST4")
	for _, name := range stm.Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := stm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Build(core.Small(), 42, eng.VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(1)
			visited := 0
			fn := func(tx stm.Tx) error {
				n, err := st4.Run(tx, s, r)
				visited += n
				return err
			}
			for mode, call := range map[string]func(){
				"Atomic":      func() { eng.Atomic(fn) },
				"RunReadOnly": func() { stm.RunReadOnly(eng, fn) },
			} {
				call() // grow the pooled descriptor and scratch to ST4's size
				visited = 0
				got := testing.AllocsPerRun(50, call)
				t.Logf("ST4 in %s: %v allocs per call", mode, got)
				if got > 2 || visited == 0 {
					t.Errorf("ST4 in %s: %v allocs per call over %d base assemblies, want <= 2", mode, got, visited)
				}
			}
		})
	}
}
