package ops

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// newTiny builds a Tiny structure on a direct engine.
func newTiny(t testing.TB) (*core.Structure, stm.Engine) {
	t.Helper()
	eng := stm.NewDirect()
	s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, eng
}

// run executes op once through eng with the given seed.
func run(t testing.TB, eng stm.Engine, s *core.Structure, op *Op, seed uint64) (int, error) {
	t.Helper()
	var res int
	var opErr error
	err := eng.Atomic(func(tx stm.Tx) error {
		res, opErr = op.Run(tx, s, rng.New(seed))
		return opErr
	})
	if err != nil && !errors.Is(err, ErrFailed) {
		t.Fatalf("%s: unexpected error: %v", op.Name, err)
	}
	return res, err
}

// mustRun fails the test if the op fails logically.
func mustRun(t testing.TB, eng stm.Engine, s *core.Structure, name string, seed uint64) int {
	t.Helper()
	op, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown op %s", name)
	}
	res, err := run(t, eng, s, op, seed)
	if err != nil {
		t.Fatalf("%s failed with seed %d: %v", name, seed, err)
	}
	return res
}

// runUntil runs op with successive seeds until ok(err) holds, failing after
// maxSeeds tries. It returns the result and the seed used.
func runUntil(t testing.TB, eng stm.Engine, s *core.Structure, name string, wantErr bool, maxSeeds int) (int, uint64) {
	t.Helper()
	op, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown op %s", name)
	}
	for seed := uint64(0); seed < uint64(maxSeeds); seed++ {
		res, err := run(t, eng, s, op, seed)
		if (err != nil) == wantErr {
			return res, seed
		}
	}
	t.Fatalf("%s: no seed in [0,%d) with failure=%v", name, maxSeeds, wantErr)
	return 0, 0
}

// fingerprint hashes the entire observable structure state.
func fingerprint(t testing.TB, eng stm.Engine, s *core.Structure) uint64 {
	t.Helper()
	h := fnv.New64a()
	w := func(vals ...uint64) {
		var buf [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	err := eng.Atomic(func(tx stm.Tx) error {
		s.Idx.AtomicByID.Ascend(tx, func(id uint64, p *core.AtomicPart) bool {
			st := p.State(tx)
			w(id, uint64(st.X), uint64(st.Y), uint64(st.BuildDate))
			return true
		})
		s.Idx.AtomicByDate.Ascend(tx, func(key uint64, p *core.AtomicPart) bool {
			w(key, p.ID)
			return true
		})
		s.Idx.CompositeByID.Ascend(tx, func(id uint64, cp *core.CompositePart) bool {
			st := cp.State(tx)
			w(id, uint64(st.BuildDate), uint64(len(st.UsedIn)))
			for _, ba := range st.UsedIn {
				w(ba.ID)
			}
			h.Write([]byte(cp.Doc.Text(tx)))
			return true
		})
		s.Idx.BaseByID.Ascend(tx, func(id uint64, ba *core.BaseAssembly) bool {
			st := ba.State(tx)
			w(id, uint64(st.BuildDate), uint64(len(st.Components)))
			for _, cp := range st.Components {
				w(cp.ID)
			}
			return true
		})
		s.Idx.ComplexByID.Ascend(tx, func(id uint64, ca *core.ComplexAssembly) bool {
			st := ca.State(tx)
			w(id, uint64(ca.Lvl), uint64(st.BuildDate), uint64(len(st.SubComplex)), uint64(len(st.SubBase)))
			return true
		})
		h.Write([]byte(s.Module.Man.Text(tx)))
		return nil
	})
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return h.Sum64()
}

// checkInvariants asserts structural invariants through eng.
func checkInvariants(t testing.TB, eng stm.Engine, s *core.Structure) {
	t.Helper()
	if err := eng.Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// expectedT1Count walks the structure like T1 and counts visits.
func expectedT1Count(t testing.TB, eng stm.Engine, s *core.Structure, rootOnly bool) int {
	t.Helper()
	total := 0
	eng.Atomic(func(tx stm.Tx) error {
		var walk func(ca *core.ComplexAssembly)
		walk = func(ca *core.ComplexAssembly) {
			st := ca.State(tx)
			for _, sub := range st.SubComplex {
				walk(sub)
			}
			for _, ba := range st.SubBase {
				for _, cp := range ba.State(tx).Components {
					if rootOnly {
						total++
					} else {
						total += len(cp.Parts)
					}
				}
			}
		}
		walk(s.Module.DesignRoot)
		return nil
	})
	return total
}

func TestRegistryComplete(t *testing.T) {
	if got := len(All()); got != 45 {
		t.Fatalf("registered %d operations, want 45", got)
	}
	wantCounts := map[Category]int{
		LongTraversal:         12,
		ShortTraversal:        10,
		ShortOperation:        15,
		StructureModification: 8,
	}
	gotCounts := map[Category]int{}
	roCounts := map[Category]int{}
	for _, op := range All() {
		gotCounts[op.Category]++
		if op.ReadOnly {
			roCounts[op.Category]++
		}
	}
	for cat, want := range wantCounts {
		if gotCounts[cat] != want {
			t.Errorf("%v: %d ops, want %d", cat, gotCounts[cat], want)
		}
	}
	// Read-only membership per Appendix B.
	if roCounts[LongTraversal] != 5 { // T1, T4, T6, Q6, Q7
		t.Errorf("read-only long traversals = %d, want 5", roCounts[LongTraversal])
	}
	if roCounts[ShortTraversal] != 6 { // ST1-ST5, ST9
		t.Errorf("read-only short traversals = %d, want 6", roCounts[ShortTraversal])
	}
	if roCounts[ShortOperation] != 8 { // OP1-OP8
		t.Errorf("read-only short operations = %d, want 8", roCounts[ShortOperation])
	}
	if roCounts[StructureModification] != 0 {
		t.Errorf("read-only SMs = %d, want 0", roCounts[StructureModification])
	}
	for _, name := range []string{"T1", "T2a", "T2b", "T2c", "T3a", "T3b", "T3c", "T4", "T5", "T6", "Q6", "Q7",
		"ST1", "ST2", "ST3", "ST4", "ST5", "ST6", "ST7", "ST8", "ST9", "ST10",
		"OP1", "OP2", "OP3", "OP4", "OP5", "OP6", "OP7", "OP8", "OP9", "OP10", "OP11", "OP12", "OP13", "OP14", "OP15",
		"SM1", "SM2", "SM3", "SM4", "SM5", "SM6", "SM7", "SM8"} {
		if _, ok := ByName(name); !ok {
			t.Errorf("missing operation %s", name)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if LongTraversal.String() != "long-traversal" || Category(99).String() != "unknown" {
		t.Error("Category.String broken")
	}
}

// --- long traversals ------------------------------------------------------

func TestT1(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	got := mustRun(t, eng, s, "T1", 1)
	want := expectedT1Count(t, eng, s, false)
	if got != want {
		t.Errorf("T1 = %d, want %d", got, want)
	}
	if fingerprint(t, eng, s) != before {
		t.Error("T1 modified the structure")
	}
}

func TestT6(t *testing.T) {
	s, eng := newTiny(t)
	got := mustRun(t, eng, s, "T6", 1)
	want := expectedT1Count(t, eng, s, true)
	if got != want {
		t.Errorf("T6 = %d, want %d", got, want)
	}
}

func TestT2aSwapsRoots(t *testing.T) {
	s, eng := newTiny(t)
	// Record per-root visit parity: a root visited an odd number of times
	// ends up swapped.
	visits := map[*core.AtomicPart]int{}
	var before map[*core.AtomicPart]core.AtomicPartState
	eng.Atomic(func(tx stm.Tx) error {
		before = map[*core.AtomicPart]core.AtomicPartState{}
		var walk func(ca *core.ComplexAssembly)
		walk = func(ca *core.ComplexAssembly) {
			st := ca.State(tx)
			for _, sub := range st.SubComplex {
				walk(sub)
			}
			for _, ba := range st.SubBase {
				for _, cp := range ba.State(tx).Components {
					visits[cp.RootPart]++
					before[cp.RootPart] = cp.RootPart.State(tx)
				}
			}
		}
		walk(s.Module.DesignRoot)
		return nil
	})
	n := mustRun(t, eng, s, "T2a", 1)
	if want := expectedT1Count(t, eng, s, false); n != want {
		t.Errorf("T2a count = %d, want %d", n, want)
	}
	eng.Atomic(func(tx stm.Tx) error {
		for root, cnt := range visits {
			st := root.State(tx)
			b := before[root]
			if cnt%2 == 1 {
				if st.X != b.Y || st.Y != b.X {
					t.Errorf("root %d not swapped after odd visits", root.ID)
				}
			} else {
				if st.X != b.X || st.Y != b.Y {
					t.Errorf("root %d changed after even visits", root.ID)
				}
			}
		}
		return nil
	})
	checkInvariants(t, eng, s)
}

func TestT2bSwapsEverything(t *testing.T) {
	s, eng := newTiny(t)
	n := mustRun(t, eng, s, "T2b", 1)
	if want := expectedT1Count(t, eng, s, false); n != want {
		t.Errorf("T2b count = %d, want %d", n, want)
	}
	checkInvariants(t, eng, s)
}

func TestT2cIsNetIdentity(t *testing.T) {
	// Four swap-x/y updates per visit cancel out: the structure must be
	// bit-identical afterwards.
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	mustRun(t, eng, s, "T2c", 1)
	if fingerprint(t, eng, s) != before {
		t.Error("T2c (4 swaps) should be a net identity")
	}
}

func TestT3aIndexedRootUpdates(t *testing.T) {
	s, eng := newTiny(t)
	n := mustRun(t, eng, s, "T3a", 1)
	if want := expectedT1Count(t, eng, s, false); n != want {
		t.Errorf("T3a count = %d, want %d", n, want)
	}
	checkInvariants(t, eng, s) // date index must be consistent
}

func TestT3bIndexedAllUpdates(t *testing.T) {
	s, eng := newTiny(t)
	mustRun(t, eng, s, "T3b", 1)
	checkInvariants(t, eng, s)
}

func TestT3cIndexedQuadUpdates(t *testing.T) {
	s, eng := newTiny(t)
	before := fingerprint(t, eng, s)
	mustRun(t, eng, s, "T3c", 1)
	// Four date toggles per visit: +1,-1,+1,-1 (or mirrored) cancel out.
	if fingerprint(t, eng, s) != before {
		t.Error("T3c (4 toggles) should be a net identity")
	}
	checkInvariants(t, eng, s)
}

func TestT4CountsI(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		var walk func(ca *core.ComplexAssembly)
		walk = func(ca *core.ComplexAssembly) {
			st := ca.State(tx)
			for _, sub := range st.SubComplex {
				walk(sub)
			}
			for _, ba := range st.SubBase {
				for _, cp := range ba.State(tx).Components {
					want += core.CountChar(cp.Doc.Text(tx), 'I')
				}
			}
		}
		walk(s.Module.DesignRoot)
		return nil
	})
	if got := mustRun(t, eng, s, "T4", 1); got != want {
		t.Errorf("T4 = %d, want %d", got, want)
	}
}

func TestT5SwapsDocuments(t *testing.T) {
	s, eng := newTiny(t)
	n1 := mustRun(t, eng, s, "T5", 1)
	if n1 == 0 {
		t.Error("T5 replaced nothing")
	}
	checkInvariants(t, eng, s)
	// After a full pass every reachable document toggles; a second pass
	// must toggle them back (counts may differ only if a doc is reachable
	// an even number of times — the fingerprint check is the real test).
	mustRun(t, eng, s, "T5", 1)
	eng.Atomic(func(tx stm.Tx) error {
		cp, _ := s.LookupComposite(tx, 1)
		if got := cp.Doc.Text(tx); got != core.DocumentText(cp.ID, s.P.DocumentSize) {
			// Only check a doc linked an odd number of times would differ;
			// doc 1 may legitimately differ. Just ensure text is one of the
			// two valid forms.
			swapped, _ := core.SwapIAm(core.DocumentText(cp.ID, s.P.DocumentSize))
			if got != swapped {
				t.Error("document text corrupted by double T5")
			}
		}
		return nil
	})
}

func TestQ6MatchesBruteForce(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		var walk func(ca *core.ComplexAssembly) bool
		walk = func(ca *core.ComplexAssembly) bool {
			st := ca.State(tx)
			hit := false
			for _, sub := range st.SubComplex {
				if walk(sub) {
					hit = true
				}
			}
			for _, ba := range st.SubBase {
				d := ba.BuildDate(tx)
				for _, cp := range ba.State(tx).Components {
					if d < cp.BuildDate(tx) {
						hit = true
						break
					}
				}
			}
			if hit {
				want++
			}
			return hit
		}
		walk(s.Module.DesignRoot)
		return nil
	})
	if got := mustRun(t, eng, s, "Q6", 1); got != want {
		t.Errorf("Q6 = %d, want %d", got, want)
	}
}

func TestQ7CountsAllParts(t *testing.T) {
	s, eng := newTiny(t)
	var want int
	eng.Atomic(func(tx stm.Tx) error {
		want = s.Idx.AtomicByID.Len(tx)
		return nil
	})
	if got := mustRun(t, eng, s, "Q7", 1); got != want {
		t.Errorf("Q7 = %d, want %d", got, want)
	}
}

func TestLongTraversalsNeverFail(t *testing.T) {
	s, eng := newTiny(t)
	for _, op := range All() {
		if op.Category != LongTraversal {
			continue
		}
		for seed := uint64(0); seed < 3; seed++ {
			if _, err := run(t, eng, s, op, seed); err != nil {
				t.Errorf("%s failed with seed %d: %v", op.Name, seed, err)
			}
		}
	}
	checkInvariants(t, eng, s)
}
