package stm

import (
	"sync"
	"testing"
)

// Tests for the cited-extension features: lazy/adaptive acquisition (ASTM's
// defining adaptivity), the commit-counter validation heuristic (Spear et
// al.) and TL2's timestamp extension (Riegel et al.). Basic semantics are
// covered by the shared engine suites; these tests pin the distinguishing
// behaviours.

func TestAcquireModeString(t *testing.T) {
	cases := map[AcquireMode]string{
		EagerAcquire:    "eager",
		LazyAcquire:     "lazy",
		AdaptiveAcquire: "adaptive",
		AcquireMode(9):  "unknown",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestLazyAcquireDoesNotOwnBeforeCommit: with lazy acquisition a parked
// writer holds no ownership, so a competing writer commits without any
// contention-manager involvement; the parked writer detects the conflict at
// commit and retries.
func TestLazyAcquireDoesNotOwnBeforeCommit(t *testing.T) {
	eng := NewOSTMWith(OSTMConfig{Acquire: LazyAcquire})
	c := NewCell(eng.VarSpace(), 0)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			c.Update(tx, func(v int) int { return v + 1 })
			once.Do(func() {
				close(parked)
				<-resume
			})
			return nil
		})
	}()
	<-parked

	// The competing writer must get through instantly: the lazy tx has not
	// acquired anything.
	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 100); return nil }); err != nil {
		t.Fatalf("competing writer: %v", err)
	}
	if got := eng.Stats().EnemyAborts; got != 0 {
		t.Errorf("EnemyAborts = %d; lazy mode should not require aborting anyone", got)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("lazy writer: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (commit-time conflict)", attempts)
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 101 {
			t.Errorf("final = %d, want 101 (increment retried on fresh value)", got)
		}
		return nil
	})
}

// TestAdaptiveSwitchesToLazy: the first attempt of an adaptive transaction
// acquires eagerly; after a conflict abort the retry buffers lazily.
func TestAdaptiveSwitchesToLazy(t *testing.T) {
	eng := NewOSTMWith(OSTMConfig{EngineOptions: opts("cm=timid"), Acquire: AdaptiveAcquire})
	c := NewCell(eng.VarSpace(), 0)

	// First transaction (attempt 0, eager): park while owning, let an
	// aggressor... Timid self-aborts, so instead drive the adaptivity by
	// invalidating a read between attempts.
	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	sawLazyAttempt := false
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			v := c.Get(tx)
			itx := tx.(*ostmTx)
			if itx.state.retries > 0 && itx.lazy {
				sawLazyAttempt = true
			}
			once.Do(func() {
				close(parked)
				<-resume
			})
			c.Set(tx, v+1)
			return nil
		})
	}()
	<-parked
	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 50); return nil }); err != nil {
		t.Fatalf("invalidator: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("adaptive tx: %v", err)
	}
	if !sawLazyAttempt {
		t.Error("adaptive transaction never switched to lazy acquisition")
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 51 {
			t.Errorf("final = %d, want 51", got)
		}
		return nil
	})
}

// TestCommitCounterSkipsIdleValidation: with no concurrent committers, the
// heuristic must eliminate virtually all incremental validation work while
// producing identical results.
func TestCommitCounterSkipsIdleValidation(t *testing.T) {
	run := func(heuristic bool) uint64 {
		eng := NewOSTMWith(OSTMConfig{CommitCounterHeuristic: heuristic})
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
	eng := NewOSTMWith(OSTMConfig{CommitCounterHeuristic: true})
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

// TestTL2TimestampExtensionAvoidsAbort: a reader whose snapshot is
// outdated by a commit to an unrelated-then-read Var succeeds in one
// attempt with extension and needs a retry without.
func TestTL2TimestampExtensionAvoidsAbort(t *testing.T) {
	run := func(extend bool) int {
		eng := NewTL2With(TL2Config{TimestampExtension: extend})
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
				_ = b.Get(tx) // b's version is now newer than rv
				return nil
			})
		}()
		<-parked
		if err := eng.Atomic(func(tx Tx) error { b.Set(tx, 20); return nil }); err != nil {
			t.Fatalf("writer: %v", err)
		}
		close(resume)
		if err := <-done; err != nil {
			t.Fatalf("reader: %v", err)
		}
		return attempts
	}
	if got := run(true); got != 1 {
		t.Errorf("with extension: attempts = %d, want 1", got)
	}
	if got := run(false); got < 2 {
		t.Errorf("without extension: attempts = %d, want >= 2", got)
	}
}

// TestTL2ExtensionRefusesWhenReadSetStale: extension must fail (and the
// transaction retry) when a read-set entry itself was overwritten.
func TestTL2ExtensionRefusesWhenReadSetStale(t *testing.T) {
	eng := NewTL2With(TL2Config{TimestampExtension: true})
	a := NewCell(eng.VarSpace(), 1)
	b := NewCell(eng.VarSpace(), 2)

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
	// Overwrite BOTH: a (in the read set) and b (about to be read).
	if err := eng.Atomic(func(tx Tx) error { a.Set(tx, 10); b.Set(tx, 20); return nil }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (extension must refuse)", attempts)
	}
	if sum != 30 {
		t.Errorf("final sum = %d, want 30 (fresh consistent snapshot)", sum)
	}
}

// TestLazyCounterUnderContention: heavy concurrent increments stay exact
// under lazy and adaptive acquisition.
func TestLazyCounterUnderContention(t *testing.T) {
	for _, name := range []string{"ostm-lazy", "ostm-adaptive", "ostm-commitserial"} {
		t.Run(name, func(t *testing.T) {
			eng := txEngineMakers[name]()
			iters := stressIters(t, 1000)
			c := NewCell(eng.VarSpace(), 0)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if err := eng.Atomic(func(tx Tx) error {
							c.Update(tx, func(v int) int { return v + 1 })
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got != 8*iters {
					t.Errorf("counter = %d, want %d", got, 8*iters)
				}
				return nil
			})
		})
	}
}
