package stm

import (
	"runtime/debug"
	"testing"
)

func newTestVars(n int) []*Var {
	space := NewVarSpace()
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = NewCell(space, i).Var()
	}
	return vars
}

func TestVarIndexInlineBasics(t *testing.T) {
	vars := newTestVars(inlineSetCap)
	var ix varIndex
	for i, v := range vars {
		if _, ok := ix.get(v); ok {
			t.Fatalf("var %d present before put", i)
		}
		ix.put(v, int32(i))
	}
	if ix.spilled {
		t.Fatalf("index spilled at %d entries; inline capacity is %d", ix.len(), inlineSetCap)
	}
	for i, v := range vars {
		got, ok := ix.get(v)
		if !ok || got != int32(i) {
			t.Fatalf("get(vars[%d]) = %d, %v; want %d, true", i, got, ok, i)
		}
	}
	if ix.len() != len(vars) {
		t.Fatalf("len = %d, want %d", ix.len(), len(vars))
	}
}

func TestVarIndexOverwrite(t *testing.T) {
	for _, n := range []int{4, 100} { // inline and spilled
		vars := newTestVars(n)
		var ix varIndex
		for i, v := range vars {
			ix.put(v, int32(i))
		}
		for i, v := range vars {
			ix.put(v, int32(i+1000))
		}
		if ix.len() != n {
			t.Fatalf("n=%d: overwrite changed len to %d", n, ix.len())
		}
		for i, v := range vars {
			if got, _ := ix.get(v); got != int32(i+1000) {
				t.Fatalf("n=%d: get(vars[%d]) = %d after overwrite, want %d", n, i, got, i+1000)
			}
		}
	}
}

func TestVarIndexSpillAndGrow(t *testing.T) {
	const n = 10_000 // forces several grow() doublings
	vars := newTestVars(n + 1)
	vars, other := vars[:n], vars[n] // same space: spill slots tell Vars apart by id
	var ix varIndex
	for i, v := range vars {
		ix.put(v, int32(i))
	}
	if !ix.spilled {
		t.Fatal("index did not spill past inline capacity")
	}
	if ix.len() != n {
		t.Fatalf("len = %d, want %d", ix.len(), n)
	}
	for i, v := range vars {
		got, ok := ix.get(v)
		if !ok || got != int32(i) {
			t.Fatalf("get(vars[%d]) = %d, %v; want %d, true", i, got, ok, i)
		}
	}
	// A var never inserted must not be found (probe termination).
	if _, ok := ix.get(other); ok {
		t.Fatal("found a var that was never inserted")
	}
}

func TestVarIndexResetIsolatesGenerations(t *testing.T) {
	vars := newTestVars(500)
	var ix varIndex
	for i, v := range vars {
		ix.put(v, int32(i))
	}
	spillCap := len(ix.spill)
	ix.reset()
	if ix.len() != 0 {
		t.Fatalf("len = %d after reset, want 0", ix.len())
	}
	for i, v := range vars {
		if _, ok := ix.get(v); ok {
			t.Fatalf("vars[%d] survived reset", i)
		}
	}
	// Storage is retained: re-inserting the same population must not grow
	// the table again.
	for i, v := range vars {
		ix.put(v, int32(i+7))
	}
	if len(ix.spill) != spillCap {
		t.Fatalf("spill table reallocated across reset: cap %d -> %d", spillCap, len(ix.spill))
	}
	for i, v := range vars {
		if got, _ := ix.get(v); got != int32(i+7) {
			t.Fatalf("get(vars[%d]) = %d after reuse, want %d", i, got, i+7)
		}
	}
}

func TestVarIndexManyGenerations(t *testing.T) {
	// Interleave resets with lookups of stale keys: a key from generation
	// g must never be visible in generation g+1, even though its slot
	// bytes are still in the table.
	vars := newTestVars(200)
	var ix varIndex
	for round := 0; round < 50; round++ {
		lo := round % 3
		for i := lo; i < len(vars); i += 3 {
			ix.put(vars[i], int32(i^round))
		}
		for i := range vars {
			got, ok := ix.get(vars[i])
			if i >= lo && (i-lo)%3 == 0 {
				if !ok || got != int32(i^round) {
					t.Fatalf("round %d: get(vars[%d]) = %d, %v; want %d, true", round, i, got, ok, i^round)
				}
			} else if ok {
				t.Fatalf("round %d: vars[%d] visible from a previous generation", round, i)
			}
		}
		ix.reset()
	}
}

func TestVarIndexGetOrPut(t *testing.T) {
	for _, n := range []int{inlineSetCap - 2, 500} { // inline and spilled
		// One space for all of them: spill slots tell Vars apart by id.
		all := newTestVars(n + 2*inlineSetCap)
		vars, extra := all[:n], all[n:]
		var ix varIndex
		for i, v := range vars {
			got, found := ix.getOrPut(v, int32(i))
			if found || got != int32(i) {
				t.Fatalf("n=%d: first getOrPut(vars[%d]) = %d, %v; want %d, false", n, i, got, found, i)
			}
		}
		for i, v := range vars {
			got, found := ix.getOrPut(v, int32(i+1000))
			if !found || got != int32(i) {
				t.Fatalf("n=%d: second getOrPut(vars[%d]) = %d, %v; want %d, true (no overwrite)", n, i, got, found, i)
			}
		}
		if ix.len() != n {
			t.Fatalf("n=%d: len = %d after getOrPut round trips", n, ix.len())
		}
		// Crossing the inline boundary inside getOrPut must migrate and
		// keep every earlier entry.
		for i, v := range extra {
			ix.getOrPut(v, int32(n+i))
		}
		for i, v := range vars {
			if got, ok := ix.get(v); !ok || got != int32(i) {
				t.Fatalf("n=%d: vars[%d] lost across getOrPut migration: %d, %v", n, i, got, ok)
			}
		}
	}
}

func TestVarIndexSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vars := newTestVars(300)
	var ix varIndex
	fill := func() {
		ix.reset()
		for i, v := range vars {
			ix.put(v, int32(i))
		}
	}
	fill() // grow to steady state
	if got := testing.AllocsPerRun(50, fill); got != 0 {
		t.Errorf("steady-state fill: %v allocs/run, want 0", got)
	}
}
