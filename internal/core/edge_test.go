package core

import (
	"testing"

	"repro/internal/rng"
	"repro/stm"
)

// Degenerate-but-legal parameter shapes must build and hold invariants.

func TestBuildMinimalTwoLevels(t *testing.T) {
	// NumAssmLevels == 2: the root complex assembly holds base assemblies
	// directly (no intermediate complex levels).
	p := Params{
		NumAssmLevels:    2,
		NumAssmPerAssm:   3,
		NumCompPerAssm:   2,
		NumCompParts:     5,
		NumAtomicPerComp: 4,
		NumConnPerAtomic: 2,
		DocumentSize:     64,
		ManualSize:       128,
		GrowthFactor:     1.5,
	}
	eng := stm.NewDirect()
	s, err := Build(p, 1, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		if got := len(s.Module.DesignRoot.State(tx).SubBase); got != 3 {
			t.Errorf("root has %d base children, want 3", got)
		}
		if got := len(s.Module.DesignRoot.State(tx).SubComplex); got != 0 {
			t.Errorf("root has %d complex children, want 0", got)
		}
		return nil
	})
}

func TestBuildFanoutOne(t *testing.T) {
	// Fan-out 1: a degenerate chain of assemblies.
	p := Params{
		NumAssmLevels:    4,
		NumAssmPerAssm:   1,
		NumCompPerAssm:   1,
		NumCompParts:     3,
		NumAtomicPerComp: 2,
		NumConnPerAtomic: 1,
		DocumentSize:     32,
		ManualSize:       32,
		GrowthFactor:     2,
	}
	eng := stm.NewDirect()
	s, err := Build(p, 9, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		return nil
	})
	if got := p.InitialComplexAssemblies(); got != 3 {
		t.Errorf("chain complex count = %d, want 3", got)
	}
	if got := p.InitialBaseAssemblies(); got != 1 {
		t.Errorf("chain base count = %d, want 1", got)
	}
}

func TestBuildSingleAtomicPerComp(t *testing.T) {
	// One atomic part per composite: the graph is a single node with a
	// self-loop ring edge.
	p := Tiny()
	p.NumAtomicPerComp = 1
	p.NumConnPerAtomic = 1
	eng := stm.NewDirect()
	s, err := Build(p, 3, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		cp, _ := s.LookupComposite(tx, 1)
		if len(cp.Parts) != 1 || cp.Parts[0].To()[0].To != 0 {
			t.Error("single-part graph should self-loop")
		}
		return nil
	})
}

func TestGrowthFactorBelowOneClamps(t *testing.T) {
	p := Tiny()
	p.GrowthFactor = 0.5 // clamped to no-headroom
	if p.MaxCompParts() != uint64(p.NumCompParts) {
		t.Errorf("cap = %d, want %d", p.MaxCompParts(), p.NumCompParts)
	}
	eng := stm.NewDirect()
	s, err := Build(p, 1, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	// All ids taken: SM1-style allocation must fail immediately.
	eng.Atomic(func(tx stm.Tx) error {
		if _, ok := s.AllocCompID(tx); ok {
			t.Error("allocation succeeded beyond cap")
		}
		return nil
	})
}

func TestSubtreeIDNeeds(t *testing.T) {
	p := Tiny() // fan-out 3
	cases := []struct {
		level        int
		wantC, wantB int
	}{
		{1, 0, 1},
		{2, 1, 3},
		{3, 4, 9},   // 1 + 3 complex; 9 base
		{4, 13, 27}, // 1 + 3 + 9; 27
	}
	for _, c := range cases {
		gotC, gotB := p.SubtreeIDNeeds(c.level)
		if gotC != c.wantC || gotB != c.wantB {
			t.Errorf("SubtreeIDNeeds(%d) = (%d,%d), want (%d,%d)", c.level, gotC, gotB, c.wantC, c.wantB)
		}
	}
}

func TestBuildManyChunksThanManualBytes(t *testing.T) {
	p := Tiny()
	p.ManualSize = 10
	p.ManualChunks = 64 // more chunks than a sensible split
	eng := stm.NewDirect()
	s, err := Build(p, 1, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if got := s.Module.Man.FullText(tx); got != ManualText(1, 10) {
			t.Errorf("chunked text = %q", got)
		}
		return nil
	})
}

func TestDeleteEntireDesignLibrary(t *testing.T) {
	// Deleting every composite part must leave a valid (if useless)
	// structure: base assemblies with no components, empty part indexes.
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		var all []*CompositePart
		s.Idx.CompositeByID.Ascend(tx, func(_ uint64, cp *CompositePart) bool {
			all = append(all, cp)
			return true
		})
		for _, cp := range all {
			s.DeleteCompositePart(tx, cp)
		}
		if got := s.Idx.AtomicByID.Len(tx); got != 0 {
			t.Errorf("atomic index has %d entries after full deletion", got)
		}
		if got := s.Idx.AtomicByDate.Len(tx); got != 0 {
			t.Errorf("date index has %d entries after full deletion", got)
		}
		return s.CheckInvariants(tx)
	})
	// And the library can be rebuilt from the freed ids.
	r := rng.New(77)
	eng.Atomic(func(tx stm.Tx) error {
		for i := 0; i < s.P.NumCompParts; i++ {
			id, ok := s.AllocCompID(tx)
			if !ok {
				t.Fatal("id pool did not recycle")
			}
			s.BuildCompositePart(tx, r, id)
		}
		return s.CheckInvariants(tx)
	})
}
