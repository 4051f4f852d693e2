package stm

import (
	"testing"
	"testing/quick"
)

// scriptStep is one step of a randomly generated single-threaded script.
// Scripts run both against an engine (one transaction per step batch) and
// against a plain-Go oracle; the observable states must match.
type scriptStep struct {
	Cell uint8 // which cell, mod number of cells
	Kind uint8 // 0 = set, 1 = add, 2 = read, 3 = abort-batch marker
	Arg  int16
}

const propCells = 5

// runScriptEngine applies the script grouped into batches of batchLen steps,
// one Atomic per batch. A batch containing an abort marker returns an error
// from its transaction (and so must have no effect under transactional
// engines). Returns the final cell values and the sequence of read results
// from committed batches.
//
// With snapshotReads set, pure-read batches run through the engine's
// read-only snapshot mode (RunReadOnly) instead of Atomic — the same
// read-mode split the benchmark's operation dispatch performs — so the
// property suite iterates the read mode the way it iterates engines.
func runScriptEngine(eng Engine, script []scriptStep, batchLen int, snapshotReads bool) ([propCells]int, []int) {
	cells := make([]*Cell[int], propCells)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), 0)
	}
	readOnlyBatch := func(batch []scriptStep) bool {
		for _, s := range batch {
			if s.Kind%4 != 2 {
				return false
			}
		}
		return true
	}
	var reads []int
	for start := 0; start < len(script); start += batchLen {
		end := start + batchLen
		if end > len(script) {
			end = len(script)
		}
		batch := script[start:end]
		run := eng.Atomic
		if snapshotReads && readOnlyBatch(batch) {
			run = func(fn func(tx Tx) error) error { return RunReadOnly(eng, fn) }
		}
		var batchReads []int
		err := run(func(tx Tx) error {
			batchReads = batchReads[:0]
			for _, s := range batch {
				c := cells[int(s.Cell)%propCells]
				switch s.Kind % 4 {
				case 0:
					c.Set(tx, int(s.Arg))
				case 1:
					c.Update(tx, func(v int) int { return v + int(s.Arg) })
				case 2:
					batchReads = append(batchReads, c.Get(tx))
				case 3:
					return ErrAborted // logical failure
				}
			}
			return nil
		})
		if err == nil {
			reads = append(reads, batchReads...)
		}
	}
	var final [propCells]int
	eng.Atomic(func(tx Tx) error {
		for i, c := range cells {
			final[i] = c.Get(tx)
		}
		return nil
	})
	return final, reads
}

// runScriptOracle is the reference implementation over plain ints with
// batch-level rollback.
func runScriptOracle(script []scriptStep, batchLen int) ([propCells]int, []int) {
	var state [propCells]int
	var reads []int
	for start := 0; start < len(script); start += batchLen {
		end := start + batchLen
		if end > len(script) {
			end = len(script)
		}
		saved := state
		var batchReads []int
		aborted := false
		for _, s := range script[start:end] {
			i := int(s.Cell) % propCells
			switch s.Kind % 4 {
			case 0:
				state[i] = int(s.Arg)
			case 1:
				state[i] += int(s.Arg)
			case 2:
				batchReads = append(batchReads, state[i])
			case 3:
				aborted = true
			}
			if aborted {
				break
			}
		}
		if aborted {
			state = saved
		} else {
			reads = append(reads, batchReads...)
		}
	}
	return state, reads
}

func equalReads(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertySequentialEquivalence: for every engine, any single-threaded
// script of transactions produces exactly the oracle's final state and read
// results. (The direct engine is excluded from scripts with abort markers
// since it documents no rollback.)
func TestPropertySequentialEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	for name, eng := range txEngines() {
		name, engProto := name, eng
		_ = engProto
		t.Run(name, func(t *testing.T) {
			f := func(script []scriptStep, batchRaw uint8) bool {
				batchLen := int(batchRaw%7) + 1
				// Fresh engine per script so stats and clocks don't leak.
				mk, ok := txEngineMakers[name]
				if !ok {
					t.Fatalf("unknown engine %q", name)
				}
				e := mk()
				gotState, gotReads := runScriptEngine(e, script, batchLen, false)
				wantState, wantReads := runScriptOracle(script, batchLen)
				return gotState == wantState && equalReads(gotReads, wantReads)
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertySnapshotEquivalence: the sequential-equivalence property
// holds when pure-read batches are served by the read-only snapshot mode —
// a snapshot read of quiescent state must be indistinguishable from an
// Atomic read of it, for every engine configuration.
func TestPropertySnapshotEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	for name := range txEngines() {
		t.Run(name, func(t *testing.T) {
			f := func(script []scriptStep, batchRaw uint8) bool {
				batchLen := int(batchRaw%7) + 1
				mk, ok := txEngineMakers[name]
				if !ok {
					t.Fatalf("unknown engine %q", name)
				}
				e := mk()
				gotState, gotReads := runScriptEngine(e, script, batchLen, true)
				wantState, wantReads := runScriptOracle(script, batchLen)
				return gotState == wantState && equalReads(gotReads, wantReads)
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyDirectEquivalence: the direct engine matches the oracle on
// scripts without abort markers.
func TestPropertyDirectEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	f := func(script []scriptStep, batchRaw uint8) bool {
		for i := range script {
			if script[i].Kind%4 == 3 {
				script[i].Kind = 2 // neutralize abort markers
			}
		}
		batchLen := int(batchRaw%7) + 1
		gotState, gotReads := runScriptEngine(NewDirect(), script, batchLen, false)
		wantState, wantReads := runScriptOracle(script, batchLen)
		return gotState == wantState && equalReads(gotReads, wantReads)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyCloneIsolation: for slice cells, an aborted transaction's
// in-callback mutations never leak, regardless of the mutation pattern.
func TestPropertyCloneIsolation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	f := func(vals []int16, mutIdx uint8) bool {
		if len(vals) == 0 {
			vals = []int16{1}
		}
		init := make([]int, len(vals))
		for i, v := range vals {
			init[i] = int(v)
		}
		for _, e := range []Engine{NewOSTM(EngineOptions{}), NewTL2(EngineOptions{})} {
			c := NewCellClone(e.VarSpace(), CloneSlice(init), CloneSlice[int])
			e.Atomic(func(tx Tx) error {
				c.Update(tx, func(s []int) []int {
					s[int(mutIdx)%len(s)] = -12345
					return append(s, 777)
				})
				return ErrAborted
			})
			var got []int
			e.Atomic(func(tx Tx) error { got = c.Get(tx); return nil })
			if len(got) != len(init) {
				return false
			}
			for i := range got {
				if got[i] != init[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
