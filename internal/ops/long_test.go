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

// TestOSTMValidatesWhatItReadsNotWhatItOwns reads the paper's O(k²) off
// OSTM's own counter, single-threaded at Small, where the counts repeat
// exactly. T3b opens every part it visits for writing and reads none of them
// first, so its read set is the assembly tree and stays that size however
// many parts it has toggled: a handful of validations per part, as for T2b.
// T3a toggles the root parts only and reads the other 199 of each graph, as
// the paper's does, and pays for every one of them on every later open.
func TestOSTMValidatesWhatItReadsNotWhatItOwns(t *testing.T) {
	eng := stm.NewOSTM()
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
