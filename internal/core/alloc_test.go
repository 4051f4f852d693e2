package core

import (
	"math"
	"runtime"
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
// write transaction (each Var's copy is made in the box its commit
// publishes) plus the clone of the index (the Map and its token) and one
// copy each of the root, its child array and a leaf. A B-tree node that is
// three objects again (11 and 13 where there are 7 and 9), a box allocated
// apart from its value again (9 and 11), or a second open of the index Var,
// shows here.
func TestToggleAtomicDateAllocatesOnFirstTouchOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	firstTouchBudget := map[string]float64{"direct": 0, "tl2": 7, "norec": 7, "ostm": 9}
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

// TestAllocPartStateFirstWriteBytes pins a first write of an atomic part's
// state in bytes, on the engines that copy it: the transaction's private
// copy is made in the box its commit publishes, 16 bytes of box and 24 of
// AtomicPartState in the allocator's 48-byte size class, and nothing else is
// allocated. It was 64 when every box carried NOrec's commit stamp and
// version link (stm's TestBoxLayout).
func TestAllocPartStateFirstWriteBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation sizes")
	}
	const budget = 48
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"tl2", "norec"} {
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
			swap := func(tx stm.Tx) error { ap.SwapXY(tx); return nil }
			for i := 0; i < 100; i++ {
				eng.Atomic(swap)
			}
			// TotalAlloc counts every goroutine's allocations, the runtime's
			// and the test framework's too: the least of a few rounds is
			// the writes' own.
			const n, rounds = 1000, 5
			got := math.Inf(1)
			for range rounds {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					eng.Atomic(swap)
				}
				runtime.ReadMemStats(&after)
				got = min(got, float64(after.TotalAlloc-before.TotalAlloc)/n)
			}
			if got > budget {
				t.Errorf("a first write of a part state allocates %v bytes, want <= %d", got, budget)
			} else {
				t.Logf("a first write of a part state allocates %v bytes", got)
			}
		})
	}
}

// TestBuildCompositePartAllocations holds SM1's builder to the slab layout:
// a Small graph is 40 atomic parts and 120 connections, which was 538
// allocations (with the SM2 that frees the id) when each was an object with
// a Cell, a Var and an orec of its own. What is left is one per atomic part
// for its state in the box that publishes it (stm.InitCell on the cell
// inside the part), five slabs (the parts with their cells and the pointer
// array, the initial states, the connections and the incoming-edge index),
// the composite part, its document and their two cells with one box each,
// and index nodes — one object per leaf that splits (measured 57; 100 when
// the cells were a slab of their own and each box an allocation apart from
// its value, 102 when the To and From lists were two slabs of pointers
// beside a scratch array of in-degrees).
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
	if got := testing.AllocsPerRun(50, func() { eng.Atomic(sm1ThenSM2) }); got > 57 {
		t.Errorf("BuildCompositePart + DeleteCompositePart at Small on direct: %v allocs, want <= 57", got)
	} else {
		t.Logf("BuildCompositePart + DeleteCompositePart at Small on direct: %v allocs", got)
	}
}
