package ops

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// TestEngineEquivalence runs the same deterministic single-threaded
// operation sequence against identically built structures under every
// engine and demands identical results, failure patterns and final
// structure fingerprints. This pins the STM engines to the pass-through
// semantics the lock-based strategies use — the paper's requirement that
// lock-based and STM-based builds have the same behaviour (§4).
func TestEngineEquivalence(t *testing.T) {
	iters := 250
	if testing.Short() {
		iters = 60
	}
	type trace struct {
		name    string
		results []int
		fails   []bool
		final   uint64
	}
	runTrace := func(name string, eng stm.Engine) trace {
		s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		picker := NewPicker(Profile{Workload: ReadWrite, LongTraversals: true, StructureMods: true})
		r := rng.New(777)
		tr := trace{name: name}
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
				t.Fatalf("%s: op %s: %v", name, op.Name, err)
			}
			tr.results = append(tr.results, res)
			tr.fails = append(tr.fails, err != nil)
		}
		tr.final = fingerprint(t, eng, s)
		checkInvariants(t, eng, s)
		return tr
	}

	ref := runTrace("direct", stm.NewDirect())
	for name, eng := range map[string]stm.Engine{
		"ostm": stm.NewOSTM(stm.EngineOptions{}),
		"tl2":  stm.NewTL2(stm.EngineOptions{}),
	} {
		got := runTrace(name, eng)
		for i := range ref.results {
			if got.fails[i] != ref.fails[i] {
				t.Fatalf("%s: op %d failure mismatch (direct=%v, %s=%v)", name, i, ref.fails[i], name, got.fails[i])
			}
			if got.results[i] != ref.results[i] {
				t.Fatalf("%s: op %d result %d, direct said %d", name, i, got.results[i], ref.results[i])
			}
		}
		if got.final != ref.final {
			t.Errorf("%s: final structure fingerprint differs from direct", name)
		}
	}
}

// TestFailedOpsAbortCleanlyUnderSTM verifies that an operation failing
// mid-transaction under an STM engine leaves no trace even if it performed
// writes before failing (STM rollback covers what the fail-before-write
// discipline covers for locks — belt and suspenders).
func TestFailedOpsAbortCleanlyUnderSTM(t *testing.T) {
	for _, mk := range []func() stm.Engine{
		func() stm.Engine { return stm.NewOSTM(stm.EngineOptions{}) },
		func() stm.Engine { return stm.NewTL2(stm.EngineOptions{}) },
	} {
		eng := mk()
		s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
		if err != nil {
			t.Fatal(err)
		}
		before := fingerprint(t, eng, s)
		// A synthetic failing operation that writes first.
		err = eng.Atomic(func(tx stm.Tx) error {
			cp, _ := s.LookupComposite(tx, 1)
			cp.RootPart.SwapXY(tx)
			s.ToggleAtomicDate(tx, cp.RootPart)
			return ErrFailed
		})
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("%s: got %v", eng.Name(), err)
		}
		if fingerprint(t, eng, s) != before {
			t.Errorf("%s: failed tx leaked writes", eng.Name())
		}
	}
}
