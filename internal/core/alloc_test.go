package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/rng"
	"repro/stm"
)

// TestToggleAtomicDateAllocatesOnFirstTouchOnly pins the update path of the
// paper's indexed update (T3, OP15) on every engine: a transaction pays for
// its private copies of the part's state, of the build-date index cell and
// of the index path when it first touches them, and toggling the same part
// three more times in the same transaction allocates nothing further.
//
// The first touch has an absolute budget per engine as well, at Tiny, where
// the index is a root over leaves: what the engine spends on a two-Var
// write transaction plus the clone of the index (the Map and its token) and
// one copy each of the root, its child array and a leaf. A B-tree node that
// is three objects again (13 and 15 where there are 9 and 11), or a second
// open of the index Var, shows here.
func TestToggleAtomicDateAllocatesOnFirstTouchOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	firstTouchBudget := map[string]float64{"direct": 0, "tl2": 9, "norec": 9, "ostm": 11}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range stm.Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := stm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Build(Tiny(), 42, eng.VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			var ap *AtomicPart
			eng.Atomic(func(tx stm.Tx) error {
				cp, _ := s.LookupComposite(tx, 3)
				ap = cp.Parts[2]
				return nil
			})
			toggle := func(n int) func() {
				fn := func(tx stm.Tx) error {
					for i := 0; i < n; i++ {
						s.ToggleAtomicDate(tx, ap)
					}
					return nil
				}
				return func() { eng.Atomic(fn) }
			}
			// Two toggles restore the date, so both transactions leave the
			// index as they found it and every run repeats the first.
			toggle(2)()
			first := testing.AllocsPerRun(100, toggle(2))
			more := testing.AllocsPerRun(100, toggle(8))
			t.Logf("%s: first touch %v allocs, with six more toggles %v", name, first, more)
			if budget, ok := firstTouchBudget[name]; !ok {
				t.Errorf("engine %s has no first-touch budget: measure it and add it", name)
			} else if first > budget {
				t.Errorf("2 toggles allocate %v, want <= %v", first, budget)
			}
			if more > first {
				t.Errorf("2 toggles allocate %v, 8 toggles %v: a later write of a touched object allocated", first, more)
			}
		})
	}
}

// TestBuildCompositePartAllocations holds SM1's builder to the slab layout:
// a Small graph is 40 atomic parts and 120 connections, which was 538
// allocations (with the SM2 that frees the id) when each was an object with
// a Cell, a Var and an orec of its own. What is left is two per atomic part
// for its state and the box that publishes it (stm.NewCells), the five
// slabs, the composite part and its document, and index nodes — one object
// per leaf that splits (measured 102).
func TestBuildCompositePartAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	eng := stm.NewDirect()
	s, err := Build(Small(), 42, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	sm1ThenSM2 := func(tx stm.Tx) error {
		id, ok := s.AllocCompID(tx)
		if !ok {
			t.Fatal("no composite-part id left")
		}
		s.DeleteCompositePart(tx, s.BuildCompositePart(tx, r, id))
		return nil
	}
	if got := testing.AllocsPerRun(50, func() { eng.Atomic(sm1ThenSM2) }); got > 110 {
		t.Errorf("BuildCompositePart + DeleteCompositePart at Small on direct: %v allocs, want <= 110", got)
	} else {
		t.Logf("BuildCompositePart + DeleteCompositePart at Small on direct: %v allocs", got)
	}
}
