package stm

import (
	"errors"
	"fmt"
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

// versionDepth reports an engine's configured multi-version chain depth
// (1 for engines without the axis). Tests that force snapshot restarts
// skip depths above 1 — eliminating exactly those restarts is the point
// of the axis, pinned by TestSnapshotVersionedRestartElimination.
func versionDepth(eng Engine) int {
	switch e := eng.(type) {
	case *NOrec:
		return e.versions
	}
	return 1
}

// TestSnapshotRestartOnConcurrentCommit: a commit between the snapshot
// sample and a subsequent read of the committed Var restarts the attempt
// (and is counted in SnapshotRestarts, not ConflictAborts).
func TestSnapshotRestartOnConcurrentCommit(t *testing.T) {
	for name, eng := range snapshotEngines() {
		if _, isDirect := eng.(*Direct); isDirect {
			continue // no conflict detection, nothing restarts
		}
		if versionDepth(eng) > 1 {
			continue // resolves the older version instead of restarting
		}
		t.Run(name, func(t *testing.T) {
			c1 := NewCell(eng.VarSpace(), 1)
			c2 := NewCell(eng.VarSpace(), 1)
			attempts := 0
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
				c2.Get(tx)
				return nil
			})
			if err != nil {
				t.Fatalf("RunReadOnly: %v", err)
			}
			if attempts < 2 {
				t.Fatalf("attempts = %d, want >= 2 (snapshot must restart)", attempts)
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
		if versionDepth(eng) > 1 {
			continue // the forced commits resolve from the chain, no restarts
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
// each read both cells and rewrite one to preserve x + y == 100; a torn
// snapshot (one cell pre-commit, the other post-commit) breaks the sum.
// Runs against every transactional engine configuration.
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
			wg.Add(2)
			go writer(true)
			go writer(false)

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

// TestVersionStatsDelta: the multi-version counters flow through Delta as
// plain counters too.
func TestVersionStatsDelta(t *testing.T) {
	prev := Stats{VersionReads: 5, VersionMisses: 1, VersionBytes: 100}
	cur := Stats{VersionReads: 12, VersionMisses: 3, VersionBytes: 420}
	d := cur.Delta(prev)
	if d.VersionReads != 7 || d.VersionMisses != 2 || d.VersionBytes != 320 {
		t.Errorf("Delta version counters = (%d, %d, %d), want (7, 2, 320)",
			d.VersionReads, d.VersionMisses, d.VersionBytes)
	}
}

// versionedSnapshotMakers are the engine constructors the multi-version
// battery below is table-driven over: every engine with the Versions axis,
// parameterized by chain depth K.
var versionedSnapshotMakers = map[string]func(k int) Engine{
	"norec": func(k int) Engine { return NewNOrec(EngineOptions{Versions: k}) },
}

// TestTL2IgnoresVersions: TL2 takes versions=K and keeps no chain. A
// writer committing between a snapshot reader's sample and its read
// restarts the reader, as at K=1, and no version counter moves.
func TestTL2IgnoresVersions(t *testing.T) {
	eng, err := NewWith("tl2", EngineOptions{Versions: 8})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCell(eng.VarSpace(), 1)
	c2 := NewCell(eng.VarSpace(), 1)
	attempts := 0
	var got int
	if err := RunReadOnly(eng, func(tx Tx) error {
		attempts++
		c1.Get(tx)
		if attempts == 1 {
			if err := eng.Atomic(func(wtx Tx) error { c2.Set(wtx, 99); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		got = c2.Get(tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts < 2 || got != 99 {
		t.Errorf("attempts = %d, read %d; want a restart that reads 99", attempts, got)
	}
	if st := eng.Stats(); st.VersionBytes != 0 || st.VersionReads != 0 || st.VersionMisses != 0 {
		t.Errorf("version counters = (%d bytes, %d reads, %d misses), want all 0",
			st.VersionBytes, st.VersionReads, st.VersionMisses)
	}
}

// TestSnapshotVersionedRestartElimination is the PR's deterministic
// acceptance test: a writer commits between a snapshot reader's timestamp
// sample and its read of the written Var. At K=1 the reader MUST restart
// (the only committed version is too new); at K>=2 the same interleaving
// completes in a single attempt with zero restarts, because the read
// resolves the retained older version — and, crucially, it observes the
// PRE-commit value, proving the resolved version really belongs to the
// reader's snapshot rather than just suppressing the restart.
func TestSnapshotVersionedRestartElimination(t *testing.T) {
	for name, mk := range versionedSnapshotMakers {
		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/K=%d", name, k), func(t *testing.T) {
				eng := mk(k)
				c1 := NewCell(eng.VarSpace(), 1)
				c2 := NewCell(eng.VarSpace(), 1)
				attempts := 0
				var got int
				err := RunReadOnly(eng, func(tx Tx) error {
					attempts++
					c1.Get(tx)
					if attempts == 1 {
						// The pinned writer: commits to c2 after the reader
						// sampled its snapshot but before it reads c2.
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
				st := eng.Stats()
				if st.SnapshotTxs != 1 {
					t.Errorf("SnapshotTxs = %d, want 1", st.SnapshotTxs)
				}
				if st.ConflictAborts != 0 {
					t.Errorf("ConflictAborts = %d, want 0", st.ConflictAborts)
				}
				if k == 1 {
					if attempts < 2 {
						t.Errorf("K=1: attempts = %d, want >= 2 (must restart)", attempts)
					}
					if st.SnapshotRestarts == 0 {
						t.Error("K=1: SnapshotRestarts = 0, want > 0")
					}
					if got != 99 {
						t.Errorf("K=1: read %d after restart, want 99 (fresh snapshot)", got)
					}
					if st.VersionReads != 0 || st.VersionBytes != 0 {
						t.Errorf("K=1: version counters = (%d reads, %d bytes), want 0 (axis off)",
							st.VersionReads, st.VersionBytes)
					}
				} else {
					if attempts != 1 {
						t.Errorf("K=%d: attempts = %d, want 1 (restart-free)", k, attempts)
					}
					if st.SnapshotRestarts != 0 {
						t.Errorf("K=%d: SnapshotRestarts = %d, want 0", k, st.SnapshotRestarts)
					}
					if got != 1 {
						t.Errorf("K=%d: read %d, want 1 (the version belonging to the snapshot)", k, got)
					}
					if st.VersionReads == 0 {
						t.Errorf("K=%d: VersionReads = 0, want > 0 (the read must have resolved a chained version)", k)
					}
					if st.VersionMisses != 0 {
						t.Errorf("K=%d: VersionMisses = %d, want 0 (chain is deep enough)", k, st.VersionMisses)
					}
				}
				// Either way the commit is durable: a fresh snapshot sees it.
				var after int
				if err := RunReadOnly(eng, func(tx Tx) error { after = c2.Get(tx); return nil }); err != nil {
					t.Fatal(err)
				}
				if after != 99 {
					t.Errorf("post-run read = %d, want 99", after)
				}
			})
		}
	}
}

// TestSnapshotVersionChainTruncation pins the ring-wrap edge case: when
// MORE than K commits land on one Var after the reader's snapshot sample,
// the chain no longer holds a version old enough, the walk falls off the
// truncated tail, and the reader restarts (counted as a VersionMiss plus a
// SnapshotRestart) — then completes against a fresh snapshot. Retention is
// bounded: K versions never means "no restarts ever", and the miss path
// must be a restart, never a wrong value.
func TestSnapshotVersionChainTruncation(t *testing.T) {
	for name, mk := range versionedSnapshotMakers {
		t.Run(name, func(t *testing.T) {
			const k = 2
			eng := mk(k)
			c := NewCell(eng.VarSpace(), 0)
			attempts := 0
			var got int
			err := RunReadOnly(eng, func(tx Tx) error {
				attempts++
				if attempts == 1 {
					// k+1 commits: the version the reader needs is pushed
					// off the end of the ring.
					for i := 0; i < k+1; i++ {
						if err := eng.Atomic(func(wtx Tx) error {
							c.Update(wtx, func(v int) int { return v + 1 })
							return nil
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
				got = c.Get(tx)
				return nil
			})
			if err != nil {
				t.Fatalf("RunReadOnly: %v", err)
			}
			if attempts < 2 {
				t.Errorf("attempts = %d, want >= 2 (truncated chain must restart)", attempts)
			}
			if got != k+1 {
				t.Errorf("read %d, want %d (fresh snapshot after the wrap)", got, k+1)
			}
			st := eng.Stats()
			if st.VersionMisses == 0 {
				t.Error("VersionMisses = 0, want > 0 (walk fell off the truncated tail)")
			}
			if st.SnapshotRestarts == 0 {
				t.Error("SnapshotRestarts = 0, want > 0 (a miss is a restart)")
			}
		})
	}
}

// TestVersionBytesAccounting pins the space-side counter: with depth K > 1
// every commit writeback that links its predecessor adds exactly one
// retained version's bytes — a vbox: the box, its stamp and its link — and
// K=1 retains nothing.
func TestVersionBytesAccounting(t *testing.T) {
	for name, mk := range versionedSnapshotMakers {
		t.Run(name, func(t *testing.T) {
			const commits = 5
			eng := mk(4)
			c := NewCell(eng.VarSpace(), 0)
			for i := 0; i < commits; i++ {
				if err := eng.Atomic(func(tx Tx) error { c.Set(tx, i); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := eng.Stats().VersionBytes, uint64(commits)*boxBytes; got != want {
				t.Errorf("VersionBytes = %d, want %d (%d commits x %d bytes/version)", got, want, commits, boxBytes)
			}

			flat := mk(1)
			c1 := NewCell(flat.VarSpace(), 0)
			for i := 0; i < commits; i++ {
				if err := flat.Atomic(func(tx Tx) error { c1.Set(tx, i); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			if got := flat.Stats().VersionBytes; got != 0 {
				t.Errorf("K=1 VersionBytes = %d, want 0", got)
			}
		})
	}
}

// TestSnapshotVersionRingWrapConcurrent hammers the truncation race the
// mvcc.go liveness argument covers: a writer wraps a 2-deep ring on two
// invariant-linked cells as fast as it can while snapshot readers walk the
// chains concurrently. Readers may miss (truncation won the race) and
// restart, but must never observe a torn pair — a resolved version pair
// either both predate the wrap or both postdate it.
func TestSnapshotVersionRingWrapConcurrent(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for name, mk := range versionedSnapshotMakers {
		t.Run(name, func(t *testing.T) {
			eng := mk(2)
			x := NewCell(eng.VarSpace(), 60)
			y := NewCell(eng.VarSpace(), 40)

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					eng.Atomic(func(tx Tx) error {
						// Rewrite BOTH cells every commit: maximal wrap
						// pressure on both chains while preserving the sum.
						v := i % 100
						x.Set(tx, v)
						y.Set(tx, 100-v)
						return nil
					})
				}
			}()

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
					t.Errorf("torn versioned snapshot: x=%d y=%d (sum %d, want 100)", gx, gy, gx+gy)
					break
				}
			}
			stop.Store(true)
			wg.Wait()
			if st := eng.Stats(); st.SnapshotTxs == 0 {
				t.Error("SnapshotTxs = 0, want > 0")
			}
		})
	}
}
