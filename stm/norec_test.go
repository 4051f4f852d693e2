package stm

import (
	"errors"
	"sync"
	"testing"
)

// Tests for the NOrec-specific behaviours: value-based validation (a
// silent re-write of an equal value must not abort readers), snapshot
// extension on reads past a concurrent commit, and the retry budget.
// Basic semantics are covered by the shared engine suites.

// norecStraddle runs a reader transaction that reads a, parks while the
// given writer transaction commits (it is handed a), then reads b; it
// returns how many attempts the reader needed.
func norecStraddle(t *testing.T, eng *NOrec, writer func(tx Tx, a *Cell[int]) error) int {
	t.Helper()
	a := NewCell(eng.VarSpace(), 1)
	b := NewCell(eng.VarSpace(), 2)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			_ = a.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			_ = b.Get(tx)
			return nil
		})
	}()
	<-parked
	if err := eng.Atomic(func(tx Tx) error { return writer(tx, a) }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	return attempts
}

// TestNOrecSnapshotExtension: a reader that straddles a commit to a Var
// it has NOT read extends its snapshot during validation and commits in
// one attempt — NOrec's answer to TL2's timestamp extension, available
// unconditionally.
func TestNOrecSnapshotExtension(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	fresh := NewCell(eng.VarSpace(), 0)
	if got := norecStraddle(t, eng, func(tx Tx, _ *Cell[int]) error { fresh.Set(tx, 99); return nil }); got != 1 {
		t.Errorf("attempts = %d, want 1 (snapshot extension)", got)
	}
}

// TestNOrecValueValidationToleratesEqualRewrite is the hallmark of
// value-based validation: a concurrent commit that overwrites a Var the
// reader HAS read with an equal value does not invalidate it.
func TestNOrecValueValidationToleratesEqualRewrite(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	if got := norecStraddle(t, eng, func(tx Tx, a *Cell[int]) error { a.Set(tx, 1); return nil }); got != 1 {
		t.Errorf("attempts = %d, want 1 (equal value tolerated)", got)
	}
}

// TestNOrecChangedValueAborts: validation must doom a reader whose
// read-set entry was overwritten with a different value, and the retry
// must observe a consistent fresh snapshot.
func TestNOrecChangedValueAborts(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	a := NewCell(eng.VarSpace(), 1)
	b := NewCell(eng.VarSpace(), -1)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	attempts := 0
	sum := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			x := a.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			sum = x + b.Get(tx)
			return nil
		})
	}()
	<-parked
	if err := eng.Atomic(func(tx Tx) error { a.Set(tx, 10); b.Set(tx, -10); return nil }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (changed value must abort)", attempts)
	}
	if sum != 0 {
		t.Errorf("sum = %d, want 0 (consistent snapshot)", sum)
	}
}

// TestNOrecRetryBudget: with MaxRetries set, a transaction invalidated
// on every attempt gives up with ErrAborted after the budget.
func TestNOrecRetryBudget(t *testing.T) {
	const maxRetries = 2
	eng := NewNOrec(EngineOptions{MaxRetries: maxRetries})
	c := NewCell(eng.VarSpace(), 0)

	invalidate := make(chan struct{})
	invalidated := make(chan struct{})
	go func() {
		for range invalidate {
			if err := eng.Atomic(func(tx Tx) error {
				c.Update(tx, func(v int) int { return v + 1 })
				return nil
			}); err != nil {
				t.Errorf("invalidator: %v", err)
			}
			invalidated <- struct{}{}
		}
	}()

	attempts := 0
	err := eng.Atomic(func(tx Tx) error {
		attempts++
		_ = c.Get(tx)
		invalidate <- struct{}{}
		<-invalidated
		_ = c.Get(tx) // validates; the helper's commit changed the value
		return nil
	})
	close(invalidate)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if attempts != maxRetries+1 {
		t.Errorf("attempts = %d, want %d", attempts, maxRetries+1)
	}
}

// TestNOrecWriteCommitsSerialize: concurrent writers to disjoint Vars
// are all applied (the global sequence lock serializes write-backs but
// must not lose any).
func TestNOrecWriteCommitsSerialize(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	const goroutines = 8
	iters := stressIters(t, 1000)
	cells := make([]*Cell[int], goroutines)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := eng.Atomic(func(tx Tx) error {
					cells[g].Update(tx, func(v int) int { return v + 1 })
					return nil
				}); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	eng.Atomic(func(tx Tx) error {
		for i, c := range cells {
			if got := c.Get(tx); got != iters {
				t.Errorf("cell %d = %d, want %d", i, got, iters)
			}
		}
		return nil
	})
	if got := eng.Stats().Commits; got < uint64(goroutines*iters) {
		t.Errorf("commits = %d, want >= %d", got, goroutines*iters)
	}
}

// TestNOrecUncomparableInsideComparable: a value whose static type is
// comparable ([2]any) but whose runtime contents are not (a slice
// element) must not panic during value validation — comparability has
// to be checked on the dynamic value, not the type. The comparison is
// conservatively unequal, so the straddling reader retries.
func TestNOrecUncomparableInsideComparable(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	tricky := NewCell(eng.VarSpace(), [2]any{[]int{1}, 0})
	other := NewCell(eng.VarSpace(), 0)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			_ = tricky.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			_ = other.Get(tx) // forces validation of the tricky read
			return nil
		})
	}()
	<-parked
	// Overwrite with an equal-shaped value in a fresh box: validation
	// must attempt (and safely fail) the value comparison.
	if err := eng.Atomic(func(tx Tx) error { tricky.Set(tx, [2]any{[]int{1}, 0}); return nil }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (uncomparable contents compare unequal)", attempts)
	}
}

// TestNOrecNonComparableValues: Vars holding slices (non-comparable
// dynamic types) must fall back to reference validation instead of
// panicking inside the value comparison.
func TestNOrecNonComparableValues(t *testing.T) {
	eng := NewNOrec(EngineOptions{})
	c := NewCellClone(eng.VarSpace(), []int{1, 2, 3}, CloneSlice[int])
	d := NewCell(eng.VarSpace(), 0)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	var got []int
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			_ = c.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			_ = d.Get(tx)
			got = c.Get(tx)
			return nil
		})
	}()
	<-parked
	if err := eng.Atomic(func(tx Tx) error {
		c.Update(tx, func(s []int) []int { s[0] = 99; return s })
		return nil
	}); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if len(got) != 3 || got[0] != 99 {
		t.Errorf("final read = %v, want [99 2 3] (fresh snapshot after retry)", got)
	}
}
