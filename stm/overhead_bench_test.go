package stm_test

import (
	"fmt"
	"testing"

	"repro/internal/benchshapes"
	"repro/stm"
)

// BenchmarkTxOverhead* measure the fixed per-transaction cost of every
// registered engine on the shapes that bracket STMBench7's operation mix
// (defined once in internal/benchshapes, shared with `experiments -exp
// overhead` so the checked-in BENCH_*.json numbers correspond to these
// benchmarks). With b.ReportAllocs() they are also the living record of the
// allocation-free hot path: steady-state read-only transactions allocate
// nothing, small writes stay within the published-box (+locator, for OSTM)
// budget, and conflict retries reuse the descriptor.

func benchShape(b *testing.B, shapeName string) {
	sh, ok := benchshapes.ByName(shapeName)
	if !ok {
		b.Fatalf("unknown shape %q", shapeName)
	}
	for _, name := range stm.Registered() {
		if sh.Skip != nil && sh.Skip(name) {
			continue
		}
		b.Run(name, func(b *testing.B) {
			eng, err := stm.NewWith(name, stm.EngineOptions{Versions: sh.Versions})
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

// BenchmarkTxOverheadSnapshotRead: the read8 shape through the read-only
// snapshot mode (RunReadOnly) — the before/after pair for the short
// read-only operations under the PR-5 fast path.
func BenchmarkTxOverheadSnapshotRead(b *testing.B) { benchShape(b, "snapread8") }

// BenchmarkTxOverheadSnapshotTraversal: the traverse1024 shape through the
// read-only snapshot mode — no read set, no spill index, no validation.
// The gap to BenchmarkTxOverheadLongTraversal is the per-read bookkeeping
// the snapshot mode removes from T1/T6-style traversals.
func BenchmarkTxOverheadSnapshotTraversal(b *testing.B) { benchShape(b, "snaptraverse1024") }

// BenchmarkTxOverheadVersionedWalk: the snapread8 shape with a commit
// landing inside every snapshot transaction, on Versions=8 engines — each
// transaction resolves one read through the version chain. The shape's
// check asserts zero snapshot restarts, so the measured cost is the walk
// itself; the gap to BenchmarkTxOverheadSnapshotRead (plus one small-write
// commit) is the price of restart-freedom under write traffic.
func BenchmarkTxOverheadVersionedWalk(b *testing.B) { benchShape(b, "snapversionwalk8") }

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
				cells := make([]*stm.Cell[int], large)
				for i := range cells {
					cells[i] = stm.NewCell(eng.VarSpace(), i)
				}
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
