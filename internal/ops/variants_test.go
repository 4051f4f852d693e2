package ops

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// variantParams enumerates the alternate data-structure representations
// (the §5 optimizations). Every one must behave identically to the default
// under every engine — same results, same failures, same invariants.
func variantParams() map[string]core.Params {
	grouped := core.Tiny()
	grouped.GroupAtomicParts = true
	chunked := core.Tiny()
	chunked.ManualChunks = 4
	all := core.Tiny()
	all.GroupAtomicParts = true
	all.ManualChunks = 4
	return map[string]core.Params{
		"grouped-parts": grouped,
		"chunked":       chunked,
		"all-optimized": all,
	}
}

// runVariantTrace executes a deterministic operation sequence and returns
// results, failure flags and the final invariant error (nil expected).
func runVariantTrace(t *testing.T, p core.Params, eng stm.Engine, iters int) ([]int, []bool) {
	t.Helper()
	s, err := core.Build(p, 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	picker := NewPicker(Profile{Workload: ReadWrite, LongTraversals: true, StructureMods: true})
	r := rng.New(4242)
	results := make([]int, 0, iters)
	fails := make([]bool, 0, iters)
	for i := 0; i < iters; i++ {
		op := picker.Pick(r)
		seed := r.Uint64()
		var res int
		var opErr error
		err := eng.Atomic(func(tx stm.Tx) error {
			res, opErr = op.Run(tx, s, rng.New(seed))
			return opErr
		})
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatalf("%s: %v", op.Name, err)
		}
		results = append(results, res)
		fails = append(fails, err != nil)
	}
	if err := eng.Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return results, fails
}

// TestVariantsBehaveIdentically: the op sequence's observable behaviour is
// representation-independent (manual chunking changes OP4/OP11 return
// values only when the text splitting cuts through counted substrings — it
// does not for 'I' counting, so results must match).
func TestVariantsBehaveIdentically(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 40
	}
	refResults, refFails := runVariantTrace(t, core.Tiny(), stm.NewDirect(), iters)
	for name, p := range variantParams() {
		t.Run(name, func(t *testing.T) {
			got, gotFails := runVariantTrace(t, p, stm.NewDirect(), iters)
			for i := range refResults {
				if got[i] != refResults[i] || gotFails[i] != refFails[i] {
					t.Fatalf("op %d: variant (%d,%v) vs default (%d,%v)",
						i, got[i], gotFails[i], refResults[i], refFails[i])
				}
			}
		})
	}
}

// TestVariantsUnderSTMEngines: each variant representation also matches the
// default when run transactionally.
func TestVariantsUnderSTMEngines(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 30
	}
	refResults, refFails := runVariantTrace(t, core.Tiny(), stm.NewDirect(), iters)
	for name, p := range variantParams() {
		for _, mk := range []func() stm.Engine{
			func() stm.Engine { return stm.NewOSTM(stm.EngineOptions{}) },
			func() stm.Engine { return stm.NewTL2(stm.EngineOptions{}) },
		} {
			eng := mk()
			t.Run(name+"/"+eng.Name(), func(t *testing.T) {
				got, gotFails := runVariantTrace(t, p, eng, iters)
				for i := range refResults {
					if got[i] != refResults[i] || gotFails[i] != refFails[i] {
						t.Fatalf("op %d: variant (%d,%v) vs default (%d,%v)",
							i, got[i], gotFails[i], refResults[i], refFails[i])
					}
				}
			})
		}
	}
}
