package stm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the read-only snapshot mode (RunReadOnly / SnapshotReader).
// Basic Tx semantics are covered by the shared engine suites; these tests
// pin the snapshot-specific contract: committed-state visibility, opacity
// against concurrent committers, restart accounting, the write rejection
// and the fallback budget.

// snapshotEngines returns a fresh instance per transactional engine
// configuration whose engine implements SnapshotReader (all of them today;
// the helper keeps the suites honest if a future engine opts out).
func snapshotEngines() map[string]Engine {
	m := map[string]Engine{}
	for name, mk := range txEngineMakers {
		eng := mk()
		if _, ok := eng.(SnapshotReader); ok {
			m[name] = eng
		}
	}
	return m
}

func TestSnapshotReadsCommittedState(t *testing.T) {
	for name, eng := range snapshotEngines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 41)
			if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 42); return nil }); err != nil {
				t.Fatal(err)
			}
			var got int
			if err := RunReadOnly(eng, func(tx Tx) error { got = c.Get(tx); return nil }); err != nil {
				t.Fatalf("RunReadOnly: %v", err)
			}
			if got != 42 {
				t.Errorf("snapshot read = %d, want 42", got)
			}
			if st := eng.Stats(); st.SnapshotTxs != 1 {
				t.Errorf("SnapshotTxs = %d, want 1", st.SnapshotTxs)
			}
		})
	}
}

func TestSnapshotUserErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	for name, eng := range snapshotEngines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 1)
			err := RunReadOnly(eng, func(tx Tx) error {
				c.Get(tx)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("RunReadOnly = %v, want %v", err, boom)
			}
			st := eng.Stats()
			if st.UserAborts != 1 {
				t.Errorf("UserAborts = %d, want 1", st.UserAborts)
			}
			if st.SnapshotTxs != 0 {
				t.Errorf("SnapshotTxs = %d, want 0 (user abort is not a snapshot commit)", st.SnapshotTxs)
			}
		})
	}
}

func TestSnapshotWritePanics(t *testing.T) {
	for name, eng := range snapshotEngines() {
		if _, isDirect := eng.(*Direct); isDirect {
			continue // direct enforces nothing, including read-onlyness
		}
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 1)
			for i, attempt := range []func(tx Tx){
				func(tx Tx) { c.Set(tx, 2) },
				func(tx Tx) { c.Update(tx, func(v int) int { return v + 1 }) },
			} {
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("write form %d inside RunReadOnly did not panic", i)
						}
						if err, ok := r.(error); !ok || !errors.Is(err, errSnapshotWrite) {
							t.Fatalf("write form %d panicked with %v, want errSnapshotWrite", i, r)
						}
					}()
					RunReadOnly(eng, func(tx Tx) error { attempt(tx); return nil })
				}()
			}
			// The structure is untouched and the engine still works.
			var got int
			if err := RunReadOnly(eng, func(tx Tx) error { got = c.Get(tx); return nil }); err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Errorf("after rejected writes, value = %d, want 1", got)
			}
		})
	}
}

// TestSnapshotHelperFallsBack: RunReadOnly on an engine without the
// capability degrades to Atomic.
func TestSnapshotHelperFallsBack(t *testing.T) {
	eng := &capabilityFreeEngine{inner: NewTL2(EngineOptions{})}
	c := NewCell(eng.VarSpace(), 7)
	var got int
	if err := RunReadOnly(eng, func(tx Tx) error { got = c.Get(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("fallback read = %d, want 7", got)
	}
	if st := eng.Stats(); st.SnapshotTxs != 0 {
		t.Errorf("SnapshotTxs = %d, want 0 (no snapshot capability)", st.SnapshotTxs)
	}
}

// capabilityFreeEngine wraps an engine while hiding its SnapshotReader
// implementation from type assertions.
type capabilityFreeEngine struct{ inner *TL2 }

func (e *capabilityFreeEngine) Name() string                      { return "capability-free" }
func (e *capabilityFreeEngine) Atomic(fn func(tx Tx) error) error { return e.inner.Atomic(fn) }
func (e *capabilityFreeEngine) VarSpace() *VarSpace               { return e.inner.VarSpace() }
func (e *capabilityFreeEngine) Stats() Stats                      { return e.inner.Stats() }

// TestSnapshotRestartOnConcurrentCommit: a commit between the snapshot
// sample and a subsequent read of the committed Var restarts the attempt
// (and is counted in SnapshotRestarts, not ConflictAborts), and the
// restarted attempt reads the commit's value from its fresh snapshot.
func TestSnapshotRestartOnConcurrentCommit(t *testing.T) {
	for name, eng := range snapshotEngines() {
		if _, isDirect := eng.(*Direct); isDirect {
			continue // no conflict detection, nothing restarts
		}
		t.Run(name, func(t *testing.T) {
			c1 := NewCell(eng.VarSpace(), 1)
			c2 := NewCell(eng.VarSpace(), 1)
			attempts := 0
			var got int
			err := RunReadOnly(eng, func(tx Tx) error {
				attempts++
				c1.Get(tx)
				if attempts == 1 {
					// A nested commit invalidates the snapshot before the
					// next read observes its effect.
					if err := eng.Atomic(func(wtx Tx) error { c2.Set(wtx, 99); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				got = c2.Get(tx)
				return nil
			})
			if err != nil {
				t.Fatalf("RunReadOnly: %v", err)
			}
			if attempts < 2 {
				t.Fatalf("attempts = %d, want >= 2 (snapshot must restart)", attempts)
			}
			if got != 99 {
				t.Errorf("read %d after the restart, want 99 (fresh snapshot)", got)
			}
			st := eng.Stats()
			if st.SnapshotRestarts == 0 {
				t.Errorf("SnapshotRestarts = 0, want > 0")
			}
			if st.ConflictAborts != 0 {
				t.Errorf("ConflictAborts = %d, want 0 (snapshot restarts are tracked separately)", st.ConflictAborts)
			}
			if st.SnapshotTxs != 1 {
				t.Errorf("SnapshotTxs = %d, want 1", st.SnapshotTxs)
			}
		})
	}
}

// TestSnapshotFallbackAfterBudget: an attempt stream that keeps
// invalidating its own snapshot falls back to the validating Atomic path
// instead of restarting forever.
func TestSnapshotFallbackAfterBudget(t *testing.T) {
	for name, eng := range snapshotEngines() {
		if _, isDirect := eng.(*Direct); isDirect {
			continue
		}
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 0)
			forced := 0
			err := RunReadOnly(eng, func(tx Tx) error {
				// Force a fresh commit on the first budget-plus-some
				// executions; once the fallback path runs, the forcing has
				// stopped and the (validating or snapshot) attempt succeeds.
				if forced < snapRestartBudget+5 {
					forced++
					if err := eng.Atomic(func(wtx Tx) error {
						c.Update(wtx, func(v int) int { return v + 1 })
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				c.Get(tx)
				return nil
			})
			if err != nil {
				t.Fatalf("RunReadOnly: %v", err)
			}
			st := eng.Stats()
			if st.SnapshotRestarts < snapRestartBudget {
				t.Errorf("SnapshotRestarts = %d, want >= %d (budget must be exhausted first)",
					st.SnapshotRestarts, snapRestartBudget)
			}
		})
	}
}

// TestSnapshotFallbackIgnoresMaxRetries: a retry budget smaller than the
// snapshot restart budget must not turn a read-only transaction that the
// validating path would commit into ErrAborted — snapshot restarts are
// snapshot refreshes, not conflict retries, and MaxRetries only governs
// the (fallback) Atomic path.
func TestSnapshotFallbackIgnoresMaxRetries(t *testing.T) {
	makers := map[string]func() Engine{
		"tl2":   func() Engine { return NewTL2(EngineOptions{MaxRetries: 2}) },
		"norec": func() Engine { return NewNOrec(EngineOptions{MaxRetries: 2}) },
		"ostm":  func() Engine { return NewOSTM(EngineOptions{MaxRetries: 2}) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			c := NewCell(eng.VarSpace(), 0)
			forced := 0
			err := RunReadOnly(eng, func(tx Tx) error {
				if forced < snapRestartBudget+3 {
					forced++
					if err := eng.Atomic(func(wtx Tx) error {
						c.Update(wtx, func(v int) int { return v + 1 })
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				c.Get(tx)
				return nil
			})
			if err != nil {
				t.Fatalf("RunReadOnly with MaxRetries=2 = %v, want nil (fallback must engage)", err)
			}
		})
	}
}

// TestSnapshotValidationFree pins the acceptance property on TL2 (and, as
// a bonus, every engine with per-read O(1) proofs): a steady stream of
// snapshot transactions performs ZERO read-set validations — the counter
// that scales with read-set size on the Atomic path stays flat — while
// still counting its reads.
func TestSnapshotValidationFree(t *testing.T) {
	for _, name := range []string{"tl2", "norec", "ostm"} {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := make([]*Cell[int], 64)
			for i := range cells {
				cells[i] = NewCell(eng.VarSpace(), i)
			}
			// Prior write commits so the engines have real version state.
			for i, c := range cells {
				if err := eng.Atomic(func(tx Tx) error { c.Set(tx, i*10); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			before := eng.Stats()
			const rounds = 50
			for r := 0; r < rounds; r++ {
				if err := RunReadOnly(eng, func(tx Tx) error {
					for _, c := range cells {
						c.Get(tx)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			d := eng.Stats().Delta(before)
			if d.Validations != 0 {
				t.Errorf("Validations grew by %d during snapshot reads, want 0 (validation-free path)", d.Validations)
			}
			if d.SnapshotTxs != rounds {
				t.Errorf("SnapshotTxs delta = %d, want %d", d.SnapshotTxs, rounds)
			}
			if want := uint64(rounds * len(cells)); d.Reads != want {
				t.Errorf("Reads delta = %d, want %d", d.Reads, want)
			}
			if d.Commits != rounds {
				t.Errorf("Commits delta = %d, want %d (snapshot txs count as commits)", d.Commits, rounds)
			}
		})
	}
}

// TestSnapshotOpacityUnderWriteSkewShape is the conformance property the
// snapshot mode must uphold: a snapshot reader concurrent with
// write-skew-shaped committers never observes a torn state. Two writers
// each read both cells and rewrite one to preserve x + y == 100, and a
// third rewrites both cells blind on every commit, turning both Vars over
// as fast as it can; a torn snapshot (one cell pre-commit, the other
// post-commit) breaks the sum. Runs against every transactional engine
// configuration.
func TestSnapshotOpacityUnderWriteSkewShape(t *testing.T) {
	rounds := 30000
	if testing.Short() {
		rounds = 3000
	}
	for name, mk := range txEngineMakers {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			if _, ok := eng.(SnapshotReader); !ok {
				t.Skipf("%s: no snapshot capability", name)
			}
			x := NewCell(eng.VarSpace(), 60)
			y := NewCell(eng.VarSpace(), 40)

			var stop atomic.Bool
			var wg sync.WaitGroup
			writer := func(rewriteX bool) {
				defer wg.Done()
				for !stop.Load() {
					eng.Atomic(func(tx Tx) error {
						if rewriteX {
							x.Set(tx, 100-y.Get(tx))
						} else {
							y.Set(tx, 100-x.Get(tx))
						}
						return nil
					})
				}
			}
			blind := func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					eng.Atomic(func(tx Tx) error {
						v := i % 100
						x.Set(tx, v)
						y.Set(tx, 100-v)
						return nil
					})
				}
			}
			wg.Add(3)
			go writer(true)
			go writer(false)
			go blind()

			for i := 0; i < rounds; i++ {
				var gx, gy int
				if err := RunReadOnly(eng, func(tx Tx) error {
					gx = x.Get(tx)
					gy = y.Get(tx)
					return nil
				}); err != nil {
					t.Errorf("RunReadOnly: %v", err)
					break
				}
				if gx+gy != 100 {
					t.Errorf("torn snapshot: x=%d y=%d (sum %d, want 100)", gx, gy, gx+gy)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestSnapshotStatsDelta: the new counters flow through Delta as plain
// counters.
func TestSnapshotStatsDelta(t *testing.T) {
	prev := Stats{SnapshotTxs: 10, SnapshotRestarts: 3, Commits: 20}
	cur := Stats{SnapshotTxs: 25, SnapshotRestarts: 4, Commits: 50}
	d := cur.Delta(prev)
	if d.SnapshotTxs != 15 || d.SnapshotRestarts != 1 {
		t.Errorf("Delta snapshot counters = (%d, %d), want (15, 1)", d.SnapshotTxs, d.SnapshotRestarts)
	}
	if got := cur.SnapshotShare(); got != 0.5 {
		t.Errorf("SnapshotShare = %v, want 0.5", got)
	}
	if got := (Stats{}).SnapshotShare(); got != 0 {
		t.Errorf("zero-stats SnapshotShare = %v, want 0", got)
	}
}
