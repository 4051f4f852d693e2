package stm_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/stm"
)

// BenchmarkTxOverhead* measure the fixed per-transaction cost of every
// registered engine on the shapes that bracket STMBench7's operation mix.
// With b.ReportAllocs() they are also the living record of the
// allocation-free hot path: steady-state read-only transactions allocate
// nothing, small writes stay within the published-box (+locator, for OSTM)
// budget, and conflict retries reuse the descriptor.

// shape is one transaction shape to measure against an engine.
type shape struct {
	// Name selects the shape.
	Name string
	// Parallel marks shapes meant to run on concurrent workers (the
	// conflict storm); sequential shapes run a plain b.N loop.
	Parallel bool
	// Snapshot marks read-only shapes to run through the engine's
	// read-only snapshot mode (stm.RunReadOnly) instead of Atomic — the
	// before/after pair for the PR-5 validation-free fast path.
	Snapshot bool
	// Skip reports whether the shape is meaningless for an engine (the
	// storm on the conflict-free direct engine).
	Skip func(engine string) bool
	// Setup allocates the shape's Vars on eng and returns the transaction
	// function to measure, plus an optional check to run after `iters`
	// transactions committed (nil when the shape has nothing to verify).
	Setup func(eng stm.Engine) (fn func(stm.Tx) error, check func(iters int) error)
}

func cells(eng stm.Engine, n int) []*stm.Cell[int] {
	cs := make([]*stm.Cell[int], n)
	for i := range cs {
		cs[i] = stm.NewCell(eng.VarSpace(), i)
	}
	return cs
}

func readShape(n int) func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
	return func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
		cs := cells(eng, n)
		return func(tx stm.Tx) error {
			for _, c := range cs {
				c.Get(tx)
			}
			return nil
		}, nil
	}
}

// bulkPoint is what a bulkupdate shape's cells hold: OP10's swap of an atomic
// part's coordinates, plus a count of the swaps for the shape's check.
type bulkPoint struct{ X, Y, Swaps int }

// bulkUpdateShape is OP10's shape without the structure around it: one
// transaction takes n cells of a 2 000-cell slab through Cell.Mut, in an
// order that has nothing to do with their ids, and swaps each one's
// coordinates. Nothing is read that is not written, so what is measured is
// the write path — n first-touch copies in the body, then whatever commit
// does per write-set entry.
func bulkUpdateShape(n int) shape {
	return shape{
		Name: fmt.Sprintf("bulkupdate%d", n),
		Setup: func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
			const slab = 2000
			inits := make([]bulkPoint, slab)
			for i := range inits {
				inits[i] = bulkPoint{X: i, Y: -i}
			}
			cs := stm.NewCells(eng.VarSpace(), inits)
			order := rand.New(rand.NewPCG(19, uint64(n))).Perm(slab)[:n]
			fn := func(tx stm.Tx) error {
				for _, i := range order {
					p := cs[i].Mut(tx)
					p.X, p.Y, p.Swaps = p.Y, p.X, p.Swaps+1
				}
				return nil
			}
			check := func(iters int) error {
				want := make([]bulkPoint, slab)
				copy(want, inits)
				for _, i := range order {
					want[i].Swaps = iters
					if iters%2 == 1 {
						want[i].X, want[i].Y = want[i].Y, want[i].X
					}
				}
				return eng.Atomic(func(tx stm.Tx) error {
					for i := range cs {
						if got := cs[i].Get(tx); got != want[i] {
							return fmt.Errorf("cell %d = %+v after %d transactions, want %+v", i, got, iters, want[i])
						}
					}
					return nil
				})
			}
			return fn, check
		},
	}
}

// shapes returns the shapes that bracket STMBench7's operation mix: a
// read-only short transaction (OP1/OP2/OP3-sized), a small read-write
// transaction (OP7/OP9-style attribute write; the written value stays
// under 256 so interface boxing hits the runtime's small-int cache and
// engine overhead is what's measured), a conflict storm on a single Var,
// and a long read-only traversal far past the inline access-set fast path.
func shapes() []shape {
	return []shape{
		{
			Name:  "read8",
			Setup: readShape(8),
		},
		{
			Name: "read4write1",
			Setup: func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
				cs := cells(eng, 8)
				return func(tx stm.Tx) error {
					for _, c := range cs[:4] {
						c.Get(tx)
					}
					cs[1].Set(tx, 7)
					return nil
				}, nil
			},
		},
		{
			Name:     "storm",
			Parallel: true,
			Skip:     func(engine string) bool { return engine == "direct" },
			Setup: func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
				counter := stm.NewCell(eng.VarSpace(), 0)
				inc := func(v int) int { return v + 1 }
				fn := func(tx stm.Tx) error {
					counter.Update(tx, inc)
					return nil
				}
				check := func(iters int) error {
					var total int
					err := eng.Atomic(func(tx stm.Tx) error {
						total = counter.Get(tx)
						return nil
					})
					if err != nil {
						return err
					}
					if total != iters {
						return fmt.Errorf("lost updates: counter = %d, want %d", total, iters)
					}
					return nil
				}
				return fn, check
			},
		},
		{
			Name:  "traverse1024",
			Setup: readShape(1024),
		},
		// The long traversal over Vars that have all been written since they
		// were made, as a built structure's are: one slab of 1 024 cells,
		// each written once by its own committed transaction in setup. An
		// OSTM that leaves a committed locator installed pays a locator and
		// its owner's state on every read and every validated entry here,
		// where traverse1024 pays neither.
		{
			Name: "writtentraverse1024",
			Setup: func(eng stm.Engine) (func(stm.Tx) error, func(int) error) {
				cs := stm.NewCells(eng.VarSpace(), make([]int, 1024))
				for i := range cs {
					if err := eng.Atomic(func(tx stm.Tx) error { cs[i].Set(tx, i); return nil }); err != nil {
						panic(err)
					}
				}
				return func(tx stm.Tx) error {
					for i := range cs {
						cs[i].Get(tx)
					}
					return nil
				}, nil
			},
		},
		// Snapshot twins of the two read-only shapes: same Vars, same
		// transaction body, dispatched through RunReadOnly. The delta
		// against read8/traverse1024 is exactly the per-read read-set
		// logging the snapshot mode drops.
		{
			Name:     "snapread8",
			Snapshot: true,
			Setup:    readShape(8),
		},
		{
			Name:     "snaptraverse1024",
			Snapshot: true,
			Setup:    readShape(1024),
		},
	}
}

// Run executes one transaction of the shape: through the engine's
// read-only snapshot mode for Snapshot shapes, through Atomic otherwise.
func (sh shape) Run(eng stm.Engine, fn func(stm.Tx) error) error {
	if sh.Snapshot {
		return stm.RunReadOnly(eng, fn)
	}
	return eng.Atomic(fn)
}

func benchShape(b *testing.B, shapeName string) {
	all := shapes()
	i := slices.IndexFunc(all, func(sh shape) bool { return sh.Name == shapeName })
	if i < 0 {
		b.Fatalf("unknown shape %q", shapeName)
	}
	runShape(b, all[i])
}

// runShape measures sh on every registered engine it does not skip.
func runShape(b *testing.B, sh shape) {
	for _, name := range stm.Registered() {
		if sh.Skip != nil && sh.Skip(name) {
			continue
		}
		b.Run(name, func(b *testing.B) {
			eng, err := stm.New(name)
			if err != nil {
				b.Fatal(err)
			}
			fn, check := sh.Setup(eng)
			before := eng.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			if sh.Parallel {
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := sh.Run(eng, fn); err != nil {
							b.Error(err)
							return
						}
					}
				})
			} else {
				for i := 0; i < b.N; i++ {
					if err := sh.Run(eng, fn); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := eng.Stats()
			if n := st.Commits - before.Commits; sh.Parallel && n > 0 {
				// Retries per committed transaction: a protocol regression
				// (retry explosion) shows up next to the ns/op.
				b.ReportMetric(float64(st.ConflictAborts-before.ConflictAborts)/float64(n), "retries/op")
			}
			if check != nil {
				if err := check(b.N); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTxOverheadReadOnly: an 8-Var read-only transaction, the shape of
// STMBench7's short read operations (OP1/OP2/OP3 touch a handful of Vars).
func BenchmarkTxOverheadReadOnly(b *testing.B) { benchShape(b, "read8") }

// BenchmarkTxOverheadSmallWrite: read 4 Vars, write 1 — the shape of the
// short update operations (OP7/OP9-style attribute writes).
func BenchmarkTxOverheadSmallWrite(b *testing.B) { benchShape(b, "read4write1") }

// BenchmarkTxOverheadConflictStorm: every worker increments the same
// counter, so aborts and retries dominate. What's measured is the cost of a
// retry — which, with pooled descriptors and generation-cleared indexes,
// must not re-allocate per attempt. The shape's check verifies no updates
// were lost.
func BenchmarkTxOverheadConflictStorm(b *testing.B) { benchShape(b, "storm") }

// BenchmarkTxOverheadLongTraversal: a 1024-Var read-only transaction — far
// past the inline access-set fast path — exercising the spill index the way
// STMBench7's long traversals do (without the structure around it).
func BenchmarkTxOverheadLongTraversal(b *testing.B) { benchShape(b, "traverse1024") }

// BenchmarkTxOverheadWrittenTraversal: the traverse1024 shape over a slab
// of cells each written once since it was made — what one validated read
// costs once the Vars it touches have a history, as every Var of a built
// structure that an operation ever wrote does.
func BenchmarkTxOverheadWrittenTraversal(b *testing.B) { benchShape(b, "writtentraverse1024") }

// BenchmarkTxOverheadSnapshotRead: the read8 shape through the read-only
// snapshot mode (RunReadOnly) — the before/after pair for the short
// read-only operations under the PR-5 fast path.
func BenchmarkTxOverheadSnapshotRead(b *testing.B) { benchShape(b, "snapread8") }

// BenchmarkTxOverheadSnapshotTraversal: the traverse1024 shape through the
// read-only snapshot mode — no read set, no spill index, no validation.
// The gap to BenchmarkTxOverheadLongTraversal is the per-read bookkeeping
// the snapshot mode removes from T1/T6-style traversals.
func BenchmarkTxOverheadSnapshotTraversal(b *testing.B) { benchShape(b, "snaptraverse1024") }

// BenchmarkTxOverheadBulkUpdate: n cells written through Cell.Mut in one
// transaction, in shuffled order — OP10 on its own, at a write set of an
// ordinary short operation (10), of one composite part's graph (40) and of
// OP10 itself on the small structure (200). The row that prices what commit
// does per write-set entry; allocs/op is 2n (the copies and their boxes; 3n
// with OSTM's locators, 0 for direct, which writes in place). The shape's
// check holds every cell of the slab to one swap per transaction, the
// untouched ones to none.
func BenchmarkTxOverheadBulkUpdate(b *testing.B) {
	for _, n := range []int{10, 40, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { runShape(b, bulkUpdateShape(n)) })
	}
}

// BenchmarkTxOverheadAfterLargeTx: a 3-read/1-write transaction on an engine
// whose pooled descriptor one earlier transaction grew to 16 K reads, beside
// the same transaction on a descriptor that never ran anything larger — what
// a short operation pays for following a long traversal through the pool.
// Recycling scrubs a descriptor's sets up to what the call used, so the two
// ns/op agree; scrubbing the retained capacity cost the grown case a 16 K
// slot clear per transaction.
func BenchmarkTxOverheadAfterLargeTx(b *testing.B) {
	const large = 16 << 10
	for _, name := range stm.Registered() {
		for _, grown := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/grown=%v", name, grown), func(b *testing.B) {
				eng, err := stm.New(name)
				if err != nil {
					b.Fatal(err)
				}
				cells := cells(eng, large)
				if grown {
					eng.Atomic(func(tx stm.Tx) error {
						for _, c := range cells {
							c.Get(tx)
						}
						return nil
					})
				}
				fn := func(tx stm.Tx) error {
					for _, c := range cells[:3] {
						c.Get(tx)
					}
					cells[3].Set(tx, 1)
					return nil
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Atomic(fn); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
