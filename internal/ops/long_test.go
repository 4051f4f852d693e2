package ops

import (
	"testing"

	"repro/internal/core"
	"repro/stm"
)

// BenchmarkLongOp is one long operation at a time on a Small structure, one
// thread, every registered engine: the read-only traversal (T1), the
// traversal that writes every part without touching an index (T2b), the three
// that update the indexed build date (T3a roots only, T3b every part, T3c
// every part four times) and the short form of the same update (OP15). What
// an engine adds to a body, and what the index adds to a write, read off the
// rows side by side.
func BenchmarkLongOp(b *testing.B) {
	for _, engine := range stm.Registered() {
		eng, err := stm.New(engine)
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.Build(core.Small(), 42, eng.VarSpace())
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"T1", "T2b", "T3a", "T3b", "T3c", "OP15"} {
			b.Run(engine+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mustRun(b, eng, s, name, uint64(i))
				}
			})
		}
		checkInvariants(b, eng, s)
	}
}

// BenchmarkGraphDFS is the inner loop of T1 and the other full traversals
// without the assembly walk above it: a depth-first search of every
// composite part's graph in a Small structure (50 graphs of 40 parts), each
// part read as T1 reads it, on direct. It is where the layout of the graph
// shows: how a part's edges are found, and whether the part an edge leads to
// is loaded before the search pops it.
func BenchmarkGraphDFS(b *testing.B) {
	eng := stm.NewDirect()
	s, err := core.Build(core.Small(), 42, eng.VarSpace())
	if err != nil {
		b.Fatal(err)
	}
	var roots []*core.AtomicPart
	eng.Atomic(func(tx stm.Tx) error {
		s.Idx.CompositeByID.Ascend(tx, func(_ uint64, cp *core.CompositePart) bool {
			roots = append(roots, cp.RootPart)
			return true
		})
		return nil
	})
	var sink int
	body := func(tx stm.Tx) error {
		for _, root := range roots {
			graphDFS(root, func(p *core.AtomicPart) { readAtomicPart(tx, p, &sink) })
		}
		return nil
	}
	b.ReportAllocs()
	for b.Loop() {
		eng.Atomic(body)
	}
}

// BenchmarkPartReads is a part read seen from one thread, on every
// registered engine: the date-range scan OP3 and the traversal T1 over a
// fresh Small structure, whose part states sit in the boxes Build made in
// build order, and over one T2b has rewritten, whose every part state is in
// a box some commit published; then OP10, which writes the parts a date
// range reaches. A read is the part, then its state's box: how far apart the
// two are, and whether the value is beside its box, read off the rows.
func BenchmarkPartReads(b *testing.B) {
	build := func(eng stm.Engine) *core.Structure {
		s, err := core.Build(core.Small(), 42, eng.VarSpace())
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	for _, engine := range stm.Registered() {
		eng, err := stm.New(engine)
		if err != nil {
			b.Fatal(err)
		}
		fresh, rewritten := build(eng), build(eng)
		mustRun(b, eng, rewritten, "T2b", 1)
		for _, c := range []struct {
			label string
			s     *core.Structure
		}{{"fresh", fresh}, {"rewritten", rewritten}} {
			for _, name := range []string{"OP3", "T1"} {
				b.Run(engine+"/"+c.label+"/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						mustRun(b, eng, c.s, name, uint64(i))
					}
				})
			}
		}
		b.Run(engine+"/OP10", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustRun(b, eng, fresh, "OP10", uint64(i))
			}
		})
		checkInvariants(b, eng, fresh)
		checkInvariants(b, eng, rewritten)
	}
}

// TestOSTMValidatesWhatItReadsNotWhatItOwns reads the paper's O(k²) off
// OSTM's own counter, single-threaded at Small, where the counts repeat
// exactly. T3b opens every part it visits for writing and reads none of them
// first, so its read set is the assembly tree and stays that size however
// many parts it has toggled: a handful of validations per part, as for T2b.
// T3a toggles the root parts only and reads the other 199 of each graph, as
// the paper's does, and pays for every one of them on every later open.
func TestOSTMValidatesWhatItReadsNotWhatItOwns(t *testing.T) {
	eng := stm.NewOSTM(stm.EngineOptions{})
	s, err := core.Build(core.Small(), 42, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	perPart := func(name string) float64 {
		before := eng.Stats().Validations
		visited := mustRun(t, eng, s, name, 1)
		return float64(eng.Stats().Validations-before) / float64(visited)
	}
	t2b, t3b, t3a := perPart("T2b"), perPart("T3b"), perPart("T3a")
	t.Logf("validations per part visited: T2b %.1f, T3b %.1f, T3a %.1f", t2b, t3b, t3a)
	if t3b >= 10 {
		t.Errorf("T3b validates %.1f read-set entries per part visited, want < 10 (T2b: %.1f): the toggle reads what it writes", t3b, t2b)
	}
	if t3a <= 200 {
		t.Errorf("T3a validates %.1f read-set entries per part visited, want > 200: the non-root reads are gone or no longer validated", t3a)
	}
}
