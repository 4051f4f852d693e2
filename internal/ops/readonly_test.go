package ops

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// TestReadOnlyOpsPerformNoWrites is the contract behind the read-only
// snapshot dispatch: every operation marked ReadOnly must never call
// Tx.Write or Tx.Update on ANY code path (success or logical failure) —
// the sync7 layer routes such operations through stm.RunReadOnly, whose
// snapshot Tx has no write path at all. The engine's Writes counter
// records every Write/Update call regardless of commit outcome, so a
// zero delta over many seeds proves write-freedom.
func TestReadOnlyOpsPerformNoWrites(t *testing.T) {
	eng := stm.NewTL2(stm.EngineOptions{})
	s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, op := range All() {
		if !op.ReadOnly {
			continue
		}
		t.Run(op.Name, func(t *testing.T) {
			before := eng.Stats()
			for seed := uint64(0); seed < 50; seed++ {
				op := op
				err := eng.Atomic(func(tx stm.Tx) error {
					_, opErr := op.Run(tx, s, rng.New(seed))
					return opErr
				})
				if err != nil && !errors.Is(err, ErrFailed) {
					t.Fatalf("%s: %v", op.Name, err)
				}
			}
			if d := eng.Stats().Delta(before); d.Writes != 0 {
				t.Errorf("%s: %d Write/Update calls from a ReadOnly operation", op.Name, d.Writes)
			}
		})
	}
}

// TestReadOnlyOpsUnderSnapshotMode runs every ReadOnly operation through
// stm.RunReadOnly directly (the way the sync7 dispatch does) and checks it
// matches the Atomic path's result for the same seed — the end-to-end form
// of the snapshot read-mode equivalence the stm package's suites check on
// synthetic scripts.
func TestReadOnlyOpsUnderSnapshotMode(t *testing.T) {
	eng := stm.NewTL2(stm.EngineOptions{})
	s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, op := range All() {
		if !op.ReadOnly {
			continue
		}
		t.Run(op.Name, func(t *testing.T) {
			for seed := uint64(0); seed < 20; seed++ {
				op := op
				var atomicRes, snapRes int
				atomicErr := eng.Atomic(func(tx stm.Tx) error {
					var opErr error
					atomicRes, opErr = op.Run(tx, s, rng.New(seed))
					return opErr
				})
				snapErr := stm.RunReadOnly(eng, func(tx stm.Tx) error {
					var opErr error
					snapRes, opErr = op.Run(tx, s, rng.New(seed))
					return opErr
				})
				if (atomicErr != nil) != (snapErr != nil) {
					t.Fatalf("seed %d: atomic err %v, snapshot err %v", seed, atomicErr, snapErr)
				}
				if atomicErr == nil && atomicRes != snapRes {
					t.Fatalf("seed %d: atomic result %d, snapshot result %d", seed, atomicRes, snapRes)
				}
			}
		})
	}
}

// TestGraphDFSMatchesReferenceSet: the pooled slot bitset behind graphDFS
// visits exactly the same parts, in the same order, as the original
// map-based implementation — across repeated pooled reuses and graphs of
// several bitset words.
func TestGraphDFSMatchesReferenceSet(t *testing.T) {
	big := core.Tiny()
	big.NumAtomicPerComp = 300 // five bitset words, the last one partly used
	eng := stm.NewDirect()
	s, err := core.Build(big, 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	reference := func(rootPart *core.AtomicPart) []uint64 {
		seen := map[*core.AtomicPart]bool{rootPart: true}
		stack := []*core.AtomicPart{rootPart}
		var order []uint64
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, p.ID)
			for _, c := range p.To() {
				if to := p.PartOf.Parts[c.To]; !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		return order
	}
	err = eng.Atomic(func(tx stm.Tx) error {
		roots := 0
		forEachBaseAssembly(tx, s.Module.DesignRoot, func(ba *core.BaseAssembly) {
			for _, cp := range ba.State(tx).Components {
				roots++
				want := reference(cp.RootPart)
				var got []uint64
				n := graphDFS(cp.RootPart, func(p *core.AtomicPart) {
					got = append(got, p.ID)
				})
				if n != len(want) || len(got) != len(want) {
					t.Fatalf("graphDFS visited %d parts, want %d", n, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("visit order diverged at %d: got id %d, want %d", i, got[i], want[i])
					}
				}
			}
		})
		if roots == 0 {
			t.Fatal("no composite parts traversed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
