package stm

import (
	"errors"
	"sync"
	"testing"
)

// Shared semantics/stress/property coverage for visible mode comes from the
// engine suites ("ostm-visible" in txEngineMakers); these tests pin the
// distinguishing protocol behaviours.

// TestVisibleReadsNeedNoValidation: a long read-only transaction performs
// zero read-set validation work.
func TestVisibleReadsNeedNoValidation(t *testing.T) {
	eng := NewOSTM(opts("visible"))
	cells := make([]*Cell[int], 300)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), i)
	}
	sum := 0
	if err := eng.Atomic(func(tx Tx) error {
		sum = 0
		for _, c := range cells {
			sum += c.Get(tx)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 299*300/2 {
		t.Fatalf("sum = %d", sum)
	}
	if got := eng.Stats().Validations; got != 0 {
		t.Errorf("Validations = %d, want 0 under visible reads", got)
	}
}

// TestVisibleWriterKillsParkedReader: a writer whose manager says
// AbortEnemy must abort a registered reader instead of letting it commit
// on a stale snapshot.
func TestVisibleWriterKillsParkedReader(t *testing.T) {
	eng := NewOSTM(EngineOptions{CM: aggressiveCM{}, VisibleReads: true})
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
			x := a.Get(tx) // registers on a
			once.Do(func() {
				close(parked)
				<-resume
			})
			y := b.Get(tx)
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
	if got := eng.Stats().EnemyAborts; got == 0 {
		t.Error("writer committed without aborting the registered reader")
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2", attempts)
	}
}

// TestVisibleReaderBlocksTimidWriter: with a Timid manager the writer must
// abort itself while a reader is registered, never the reader.
func TestVisibleReaderBlocksTimidWriter(t *testing.T) {
	eng := NewOSTM(opts("cm=timid,visible,retries=3"))
	c := NewCell(eng.VarSpace(), 7)

	parked := make(chan struct{})
	resume := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			_ = c.Get(tx)
			once.Do(func() {
				close(parked)
				<-resume
			})
			return nil
		})
	}()
	<-parked
	err := eng.Atomic(func(tx Tx) error { c.Set(tx, 8); return nil })
	if !errors.Is(err, ErrAborted) {
		t.Errorf("timid writer returned %v, want ErrAborted", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("reader: %v", err)
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 7 {
			t.Errorf("value = %d, want 7 (writer never got through)", got)
		}
		return nil
	})
}

// TestVisibleReaderSetPruning: dead reader registrations are pruned by
// later registrations, so reader sets do not grow without bound.
func TestVisibleReaderSetPruning(t *testing.T) {
	eng := NewOSTM(opts("visible"))
	c := NewCell(eng.VarSpace(), 0)
	for i := 0; i < 200; i++ {
		if err := eng.Atomic(func(tx Tx) error { c.Get(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	rs := c.Var().own.readers.Load()
	if rs == nil {
		t.Fatal("no reader set")
	}
	live := 0
	for _, r := range rs.list {
		if s := r.status.Load(); s == statusActive || s == statusValidating {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d live readers after all committed", live)
	}
	if len(rs.list) > 4 {
		t.Errorf("reader set grew to %d entries; pruning not working", len(rs.list))
	}
}

// TestVisibleOpacityUnderStress mirrors the invisible-mode opacity test:
// in-transaction snapshot consistency under concurrent writers.
func TestVisibleOpacityUnderStress(t *testing.T) {
	eng := NewOSTM(opts("visible"))
	iters := stressIters(t, 2000)
	a := NewCell(eng.VarSpace(), 5)
	b := NewCell(eng.VarSpace(), -5)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < iters; i++ {
			v := i
			if err := eng.Atomic(func(tx Tx) error {
				a.Set(tx, v)
				b.Set(tx, -v)
				return nil
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := eng.Atomic(func(tx Tx) error {
					x := a.Get(tx)
					y := b.Get(tx)
					if x+y != 0 {
						t.Errorf("inconsistent snapshot: %d + %d", x, y)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
}
