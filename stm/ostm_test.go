package stm

import (
	"errors"
	"fmt"
	"testing"
)

// scriptedCM is Polka with one scripted decision: the next OnConflict runs
// next instead. It is a test's hook into an acquire that meets a live
// owner.
type scriptedCM struct {
	Polka
	next func() Decision
}

func (c *scriptedCM) OnConflict(me, enemy TxInfo, attempt int) Decision {
	if f := c.next; f != nil {
		c.next = nil
		return f()
	}
	return c.Polka.OnConflict(me, enemy, attempt)
}

// liveOwner returns a descriptor parked Active that owns c: the live enemy
// the next writer of c arbitrates with. drop aborts and recycles it.
func liveOwner(eng *OSTM, c *Cell[int]) *ostmTx {
	tx := eng.txPool.get()
	tx.reset()
	c.Set(tx, -1)
	return tx
}

func drop(eng *OSTM, tx *ostmTx) {
	tx.abortSelf()
	eng.putTx(tx)
}

// validates reports whether tx's read set passes a commit-time validation.
func validates(tx *ostmTx) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			rethrowIfNotConflict(r)
			ok = false
		}
	}()
	tx.validate(true)
	return true
}

// TestOSTMCommitRetiresLocators pins OSTM's one locator protocol: a
// committing transaction retires its own locators, the
// box retirement stores in cur is the one readers resolved through the
// locator, a held writeback lock leaves the locator to the next acquirer
// without holding up the commit, and an aborted owner's locator is cleared
// with no writeback.
func TestOSTMCommitRetiresLocators(t *testing.T) {
	for _, visible := range []bool{false, true} {
		// "object/eager": OSTM's one granularity, and it acquires each
		// written Var when it opens it.
		t.Run(fmt.Sprintf("object/eager/visible=%v", visible), func(t *testing.T) {
			cm := &scriptedCM{}
			// A retry budget turns a protocol that livelocks (each
			// attempt writing its own aborted value back) into a failure.
			eng := NewOSTM(EngineOptions{VisibleReads: visible, CM: cm, MaxRetries: 8})
			testRetirement(t, eng, cm)
		})
	}
}

func testRetirement(t *testing.T, eng *OSTM, cm *scriptedCM) {
	a, b := NewCell(eng.VarSpace(), 0), NewCell(eng.VarSpace(), 0)
	va, vb := a.Var(), b.Var()
	write := func(fn func(tx Tx)) {
		t.Helper()
		if err := eng.Atomic(func(tx Tx) error { fn(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	get := func(c *Cell[int]) (n int) {
		t.Helper()
		if err := eng.Atomic(func(tx Tx) error { n = c.Get(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// writeHeld commits a = x, b = x+1 while the test holds a's writeback
	// lock from a's acquisition to after the commit: the scripted conflict
	// on b, a live owner's, takes the lock and kills the owner.
	writeHeld := func(x int) *locator {
		t.Helper()
		owner := liveOwner(eng, b)
		cm.next = func() Decision {
			if !va.own.wb.CompareAndSwap(0, 1) {
				t.Error("a's writeback lock is taken")
			}
			return AbortEnemy
		}
		write(func(tx Tx) { a.Set(tx, x); b.Set(tx, x+1) })
		drop(eng, owner)
		if cm.next != nil {
			t.Fatal("the writer never met b's owner")
		}
		l := va.own.loc.Load()
		if l == nil || l.owner.status.Load() != statusCommitted {
			t.Fatal("a's locator was retired through a held writeback lock")
		}
		if vb.own.loc.Load() != nil {
			t.Error("b's locator survived its owner's commit")
		}
		return l
	}

	// A committed write leaves no locator behind.
	write(func(tx Tx) { a.Set(tx, 1); b.Set(tx, 2) })
	if va.own.loc.Load() != nil || vb.own.loc.Load() != nil {
		t.Fatal("a committed write left a locator installed")
	}

	// A reader resolving through a committed locator sees the box that
	// retirement then stores in cur, and its read entry still validates.
	l := writeHeld(10)
	r := eng.txPool.get()
	r.reset()
	if got := a.Get(r); got != 10 {
		t.Errorf("reader read %d through the committed locator, want 10", got)
	}
	seen := r.reads[0].seen
	if seen != l.new {
		t.Error("the reader did not resolve through the committed locator")
	}
	va.own.wb.Store(0)
	if !retire(&va.own, l) {
		t.Fatal("retire could not take a free writeback lock")
	}
	if va.own.loc.Load() != nil || va.cur.Load() != seen {
		t.Error("retirement did not store the reader's box in cur and clear the slot")
	}
	if !validates(r) {
		t.Error("a read entry that saw the committed box fails validation after retirement")
	}
	drop(eng, r)

	// The next writer retires a locator its owner could not, and the value
	// survives.
	writeHeld(20)
	va.own.wb.Store(0)
	write(func(tx Tx) { a.Update(tx, func(n int) int { return n + 1 }) })
	if got := get(a); got != 21 {
		t.Errorf("a = %d after the next writer's increment, want 21", got)
	}
	if va.own.loc.Load() != nil {
		t.Error("the next writer left its own locator installed")
	}

	// An attempt that aborts after acquiring a leaves a's cur alone, and the
	// next acquirer clears its locator without writing 999 back.
	before := va.cur.Load()
	owner := liveOwner(eng, b)
	cm.next = func() Decision { return AbortSelf }
	errStop := errors.New("stop")
	runs := 0
	err := eng.Atomic(func(tx Tx) error {
		if runs++; runs > 1 {
			return errStop
		}
		a.Set(tx, 999)
		b.Set(tx, 999)
		return nil
	})
	drop(eng, owner)
	if !errors.Is(err, errStop) {
		t.Fatalf("aborting writer: %v, want %v", err, errStop)
	}
	if l := va.own.loc.Load(); l == nil || l.owner.status.Load() != statusAborted {
		t.Fatal("the aborted attempt left no locator on a")
	}
	if va.cur.Load() != before {
		t.Error("an aborted attempt moved a's cur")
	}
	write(func(tx Tx) { a.Update(tx, func(n int) int { return n + 1 }) })
	if got := get(a); got != 22 {
		t.Errorf("a = %d after clearing an aborted locator, want 22", got)
	}
	if va.own.loc.Load() != nil || vb.own.loc.Load() == nil {
		t.Error("want a's slot clear and b's aborted owner still installed")
	}
}
