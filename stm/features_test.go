package stm

import (
	"sync"
	"testing"
)

// Tests for the commit-counter validation heuristic (Spear et al.), the
// one cited-fix knob that is a Go config field rather than a spec key. Basic
// semantics are covered by the shared engine suites; these tests pin the
// distinguishing behaviours.

// TestCommitCounterSkipsIdleValidation: with no concurrent committers, the
// heuristic must eliminate virtually all incremental validation work while
// producing identical results.
func TestCommitCounterSkipsIdleValidation(t *testing.T) {
	run := func(heuristic bool) uint64 {
		eng := NewOSTM(EngineOptions{CommitCounterHeuristic: heuristic})
		cells := make([]*Cell[int], 200)
		for i := range cells {
			cells[i] = NewCell(eng.VarSpace(), i)
		}
		sum := 0
		eng.Atomic(func(tx Tx) error {
			sum = 0
			for _, c := range cells {
				sum += c.Get(tx)
			}
			return nil
		})
		if sum != 199*200/2 {
			t.Fatalf("sum = %d", sum)
		}
		return eng.Stats().Validations
	}
	baseline := run(false)
	withHeuristic := run(true)
	// Baseline: sum_{k<200} k ≈ 19900 entry validations. Heuristic: only
	// the final commit-time pass (200).
	if baseline < 15000 {
		t.Errorf("baseline validations = %d, expected O(k²)", baseline)
	}
	if withHeuristic > 500 {
		t.Errorf("heuristic validations = %d, want only the final pass", withHeuristic)
	}
}

// TestCommitCounterStillCatchesConflicts: the heuristic must not skip the
// validation that dooms a genuinely invalidated transaction.
func TestCommitCounterStillCatchesConflicts(t *testing.T) {
	eng := NewOSTM(EngineOptions{CommitCounterHeuristic: true})
	a := NewCell(eng.VarSpace(), 1)
	b := NewCell(eng.VarSpace(), -1)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			x := a.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			y := b.Get(tx) // must validate: a commit happened meanwhile
			if x+y != 0 {
				t.Errorf("inconsistent snapshot: %d + %d", x, y)
			}
			return nil
		})
	}()
	<-parked
	if err := eng.Atomic(func(tx Tx) error { a.Set(tx, 2); b.Set(tx, -2); return nil }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (stale read must abort)", attempts)
	}
}
