package ops

import (
	"testing"

	"repro/internal/core"
	"repro/stm"
)

// --- short traversals -----------------------------------------------------

func TestST1SucceedsAndIsReadOnly(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	res, seed := runUntil(t, eng, s, "ST1", false, 100)
	_ = seed
	if res < 0 {
		t.Errorf("ST1 = %d, want x+y >= 0", res)
	}
	if fingerprint(t, eng, s) != before {
		t.Error("ST1 modified the structure")
	}
}

func TestST1Deterministic(t *testing.T) {
	s, eng := newTiny(t)
	res1, seed := runUntil(t, eng, s, "ST1", false, 100)
	res2 := mustRun(t, eng, s, "ST1", seed)
	if res1 != res2 {
		t.Errorf("ST1 with same seed: %d then %d", res1, res2)
	}
}

func TestST2CountsDocumentI(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "ST2", false, 100)
	// Every fresh document has the same 'I' count (same template/size, id
	// digits do not add 'I').
	want := core.CountChar(core.DocumentText(1, s.P.DocumentSize), 'I')
	if res != want {
		t.Errorf("ST2 = %d, want %d", res, want)
	}
}

func TestST3VisitsAscendants(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "ST3", false, 200)
	// Tiny tree has levels 3..2 above base: a part used by k bases visits
	// between 2 (one path: level-2 + root) and all complex assemblies.
	maxComplex := s.P.InitialComplexAssemblies()
	if res < 2 || res > maxComplex {
		t.Errorf("ST3 = %d, want within [2, %d]", res, maxComplex)
	}
	// Failure path exists too (id domain has headroom).
	runUntil(t, eng, s, "ST3", true, 400)
}

func TestST4VisitsBases(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "ST4", false, 50)
	if res < 0 || res > s.P.InitialBaseAssemblies() {
		t.Errorf("ST4 = %d out of range", res)
	}
	before := fingerprint(t, eng, s)
	mustRun(t, eng, s, "ST4", 7)
	if fingerprint(t, eng, s) != before {
		t.Error("ST4 modified the structure")
	}
}

func TestST5MatchesBruteForce(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		s.Idx.BaseByID.Ascend(tx, func(_ uint64, ba *core.BaseAssembly) bool {
			st := ba.State(tx)
			for _, cp := range st.Components {
				if st.BuildDate < cp.BuildDate(tx) {
					want++
					break
				}
			}
			return true
		})
		return nil
	})
	if got := mustRun(t, eng, s, "ST5", 1); got != want {
		t.Errorf("ST5 = %d, want %d", got, want)
	}
}

func TestST6UpdatesOnePart(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	_, seed := runUntil(t, eng, s, "ST6", false, 100)
	if fingerprint(t, eng, s) == before {
		t.Error("ST6 did not modify anything")
	}
	// A second run with the same seed swaps the same part back.
	mustRun(t, eng, s, "ST6", seed)
	if fingerprint(t, eng, s) != before {
		t.Error("double ST6 with same seed should restore the structure")
	}
	checkInvariants(t, eng, s)
}

func TestST7TogglesDocument(t *testing.T) {
	s, eng := newTiny(t)
	res, seed := runUntil(t, eng, s, "ST7", false, 100)
	if res == 0 {
		t.Error("ST7 replaced nothing")
	}
	before := fingerprint(t, eng, s)
	mustRun(t, eng, s, "ST7", seed)
	mustRun(t, eng, s, "ST7", seed)
	if fingerprint(t, eng, s) != before {
		t.Error("double ST7 with same seed should restore the text")
	}
	checkInvariants(t, eng, s)
}

func TestST8UpdatesAssemblies(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "ST8", false, 200)
	if res < 2 {
		t.Errorf("ST8 visited %d assemblies, want >= 2", res)
	}
	checkInvariants(t, eng, s)
}

func TestST9VisitsWholeGraph(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "ST9", false, 100)
	if res != s.P.NumAtomicPerComp {
		t.Errorf("ST9 = %d, want %d (whole graph)", res, s.P.NumAtomicPerComp)
	}
}

func TestST10SwapsWholeGraph(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	res, seed := runUntil(t, eng, s, "ST10", false, 100)
	if res != s.P.NumAtomicPerComp {
		t.Errorf("ST10 = %d, want %d", res, s.P.NumAtomicPerComp)
	}
	mustRun(t, eng, s, "ST10", seed)
	if fingerprint(t, eng, s) != before {
		t.Error("double ST10 with same seed should restore the structure")
	}
	checkInvariants(t, eng, s)
}

// --- short operations -----------------------------------------------------

func TestOP1Bounds(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	for seed := uint64(0); seed < 20; seed++ {
		res := mustRun(t, eng, s, "OP1", seed)
		if res < 0 || res > 10 {
			t.Fatalf("OP1 = %d, want [0,10]", res)
		}
	}
	if fingerprint(t, eng, s) != before {
		t.Error("OP1 modified the structure")
	}
}

func TestDateRangeOpsMatchBruteForce(t *testing.T) {
	s, eng := newTiny(t)
	// Put parts on both ends of the date range and on both sides of OP2's
	// lower bound, whatever the build drew.
	eng.Atomic(func(tx stm.Tx) error {
		i := 0
		dates := []int{core.MinDate, 1989, 1990, core.MaxDate, core.MaxDate}
		s.Idx.AtomicByID.Ascend(tx, func(_ uint64, p *core.AtomicPart) bool {
			s.SetAtomicDate(tx, p, dates[i])
			i++
			return i < len(dates)
		})
		return nil
	})
	count := func(lo, hi int) int {
		n := 0
		eng.Atomic(func(tx stm.Tx) error {
			s.Idx.AtomicByID.Ascend(tx, func(_ uint64, p *core.AtomicPart) bool {
				if d := p.BuildDate(tx); d >= lo && d <= hi {
					n++
				}
				return true
			})
			return nil
		})
		return n
	}
	if got, want := mustRun(t, eng, s, "OP2", 1), count(1990, 1999); got != want {
		t.Errorf("OP2 = %d, want %d", got, want)
	}
	if got, want := mustRun(t, eng, s, "OP10", 1), count(1990, 1999); got != want {
		t.Errorf("OP10 = %d, want %d", got, want)
	}
	if got, want := mustRun(t, eng, s, "OP3", 1), count(1900, 1999); got != want {
		t.Errorf("OP3 = %d, want %d", got, want)
	}
	// OP3 covers the full date range: every part.
	var total int
	eng.Atomic(func(tx stm.Tx) error { total = s.Idx.AtomicByID.Len(tx); return nil })
	if got := mustRun(t, eng, s, "OP3", 1); got != total {
		t.Errorf("OP3 = %d, want all %d parts", got, total)
	}
}

func TestOP4CountsManualI(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		want = core.CountChar(s.Module.Man.FullText(tx), 'I')
		return nil
	})
	if got := mustRun(t, eng, s, "OP4", 1); got != want {
		t.Errorf("OP4 = %d, want %d", got, want)
	}
}

func TestOP5FirstLastChar(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		txt := s.Module.Man.FullText(tx)
		if txt[0] == txt[len(txt)-1] {
			want = 1
		}
		return nil
	})
	if got := mustRun(t, eng, s, "OP5", 1); got != want {
		t.Errorf("OP5 = %d, want %d", got, want)
	}
}

func TestOP6OP7Siblings(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "OP6", false, 200)
	// Fan-out 3 initially: 0 (root drawn) or 2 siblings.
	if res != 0 && res != s.P.NumAssmPerAssm-1 {
		t.Errorf("OP6 = %d, want 0 or %d", res, s.P.NumAssmPerAssm-1)
	}
	res, _ = runUntil(t, eng, s, "OP7", false, 200)
	if res != s.P.NumAssmPerAssm-1 {
		t.Errorf("OP7 = %d, want %d", res, s.P.NumAssmPerAssm-1)
	}
	// Both must be able to fail on an id miss.
	runUntil(t, eng, s, "OP6", true, 400)
	runUntil(t, eng, s, "OP7", true, 400)
}

func TestOP8ComponentsOfBase(t *testing.T) {
	s, eng := newTiny(t)
	res, _ := runUntil(t, eng, s, "OP8", false, 200)
	if res < 0 || res > s.P.NumCompPerAssm {
		t.Errorf("OP8 = %d, want [0,%d]", res, s.P.NumCompPerAssm)
	}
}

func TestOP9DoubleRunRestores(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	res, seed := runUntil(t, eng, s, "OP9", false, 100)
	if res == 0 {
		// Find a seed that actually touched parts.
		t.Skip("OP9 found no parts; tiny domain too sparse for this seed range")
	}
	mustRun(t, eng, s, "OP9", seed)
	if fingerprint(t, eng, s) != before {
		t.Error("double OP9 with same seed should restore the structure")
	}
	checkInvariants(t, eng, s)
}

func TestOP10SwapsDateRange(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	res := mustRun(t, eng, s, "OP10", 3)
	mustRun(t, eng, s, "OP10", 3)
	if res > 0 && fingerprint(t, eng, s) != before {
		t.Error("double OP10 should restore the structure")
	}
	checkInvariants(t, eng, s)
}

func TestOP11SwapsManualCase(t *testing.T) {
	s, eng := newTiny(t)
	var wantI int
	eng.Atomic(func(tx stm.Tx) error {
		wantI = core.CountChar(s.Module.Man.FullText(tx), 'I')
		return nil
	})
	got := mustRun(t, eng, s, "OP11", 1)
	if got != wantI {
		t.Errorf("OP11 = %d changes, want %d", got, wantI)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if n := core.CountChar(s.Module.Man.FullText(tx), 'I'); n != 0 {
			t.Errorf("manual still has %d 'I' after OP11", n)
		}
		return nil
	})
	// Second run flips every i -> I.
	mustRun(t, eng, s, "OP11", 1)
	eng.Atomic(func(tx stm.Tx) error {
		if n := core.CountChar(s.Module.Man.FullText(tx), 'i'); n != 0 {
			t.Errorf("manual still has %d 'i' after reverse OP11", n)
		}
		return nil
	})
}

func TestOP12OP13UpdateSiblings(t *testing.T) {
	s, eng := newTiny(t)
	runUntil(t, eng, s, "OP12", false, 200)
	runUntil(t, eng, s, "OP13", false, 200)
	checkInvariants(t, eng, s)
}

func TestOP14UpdatesComposites(t *testing.T) {
	s, eng := newTiny(t)
	runUntil(t, eng, s, "OP14", false, 200)
	checkInvariants(t, eng, s)
}

func TestOP15MaintainsDateIndex(t *testing.T) {
	s, eng := newTiny(t)
	for seed := uint64(0); seed < 10; seed++ {
		mustRun(t, eng, s, "OP15", seed)
	}
	checkInvariants(t, eng, s) // the date index must track every toggle
}

func TestShortOpsFailurePurity(t *testing.T) {
	// Any operation that fails must leave the structure untouched even
	// under the non-rolling-back direct engine.
	s, eng := newTiny(t)
	failable := []string{"ST1", "ST2", "ST3", "ST6", "ST7", "ST8", "ST9", "ST10",
		"OP6", "OP7", "OP8", "OP12", "OP13", "OP14",
		"SM2", "SM3", "SM4", "SM5", "SM6", "SM7", "SM8"}
	for _, name := range failable {
		op, _ := ByName(name)
		found := false
		for seed := uint64(0); seed < 500 && !found; seed++ {
			before := fingerprint(t, eng, s)
			if _, err := run(t, eng, s, op, seed); err != nil {
				found = true
				if fingerprint(t, eng, s) != before {
					t.Errorf("%s: failed run modified the structure", name)
				}
			}
			// Successful runs may modify the structure; the next iteration
			// re-baselines.
		}
		if !found {
			t.Logf("%s: no failing seed in range (ok for dense domains)", name)
		}
	}
	checkInvariants(t, eng, s)
}
