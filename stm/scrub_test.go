package stm

import "testing"

// checkPooledSet checks one set of a pooled descriptor: grown by the large
// attempt to at least grownTo, empty, no non-zero slot anywhere in its
// capacity, high-water mark reset.
func checkPooledSet[T comparable](t *testing.T, name string, s []T, hi, grownTo int) {
	t.Helper()
	if cap(s) < grownTo {
		t.Errorf("%s: capacity %d, the large attempt should have grown it to %d", name, cap(s), grownTo)
	}
	var zero T
	dirty := 0
	for _, e := range s[:cap(s)] {
		if e != zero {
			dirty++
		}
	}
	if len(s) != 0 || dirty != 0 || hi != 0 {
		t.Errorf("%s: pooled with len %d, %d non-zero slots in [:cap], high-water mark %d; want 0, 0, 0", name, len(s), dirty, hi)
	}
}

// checkPooledIndexes checks a pooled descriptor's Var-to-index lookups: no
// inline key left (spill slots hold ids, which pin nothing). A *Var there
// would keep alive the Var and, if it is one cell of a NewCells slab, every
// cell and value of the slab.
func checkPooledIndexes(t *testing.T, indexes ...*varIndex) {
	t.Helper()
	for i, ix := range indexes {
		if ix.keys != [inlineSetCap]*Var{} || ix.len() != 0 {
			t.Errorf("index %d: pooled with %d live entries and inline keys %v; want none", i, ix.len(), ix.keys)
		}
	}
}

// TestPooledDescriptorHoldsNothing pins the scrub half of the descriptor
// pooling contract now that the scrub is bounded by use: one call whose
// first attempt is large and aborts and whose committing attempt is small
// must leave no entry anywhere in the pooled descriptor's sets — the slots
// beyond the committing attempt's length were written by this call too —
// and no key in its indexes.
// A second, small call then has to find its high-water marks reset.
func TestPooledDescriptorHoldsNothing(t *testing.T) {
	const bigReads, bigWrites = 5000, 2000
	call := func(t *testing.T, eng Engine, cells []*Cell[int], firstAttemptLarge bool) {
		t.Helper()
		attempt := 0
		err := eng.Atomic(func(tx Tx) error {
			attempt++
			if firstAttemptLarge && attempt == 1 {
				for _, c := range cells {
					c.Get(tx)
				}
				for _, c := range cells[:bigWrites] {
					c.Set(tx, attempt)
				}
				throwConflict("test: abort the large attempt")
			}
			for _, c := range cells[:3] {
				c.Get(tx)
			}
			cells[0].Set(tx, attempt)
			return nil
		})
		if err != nil || (firstAttemptLarge && attempt != 2) {
			t.Fatalf("call ended with %v after %d attempts", err, attempt)
		}
	}
	newCells := func(eng Engine) []*Cell[int] {
		cells := make([]*Cell[int], bigReads)
		for i := range cells {
			cells[i] = NewCell(eng.VarSpace(), i)
		}
		return cells
	}
	t.Run("tl2", func(t *testing.T) {
		eng := NewTL2()
		pinDescriptor(&eng.txPool)
		cells := newCells(eng)
		for _, large := range []bool{true, false} {
			call(t, eng, cells, large)
			tx := eng.txPool.get()
			checkPooledSet(t, "reads", tx.reads, tx.hiReads, bigReads)
			checkPooledSet(t, "writes", tx.writes, tx.hiWrites, bigWrites)
			checkPooledIndexes(t, &tx.readIdx, &tx.writeIdx)
			eng.txPool.put(tx)
		}
	})
	t.Run("norec", func(t *testing.T) {
		eng := NewNOrec()
		pinDescriptor(&eng.txPool)
		cells := newCells(eng)
		for _, large := range []bool{true, false} {
			call(t, eng, cells, large)
			tx := eng.txPool.get()
			checkPooledSet(t, "reads", tx.reads, tx.hiReads, bigReads)
			checkPooledSet(t, "writes", tx.writes, tx.hiWrites, bigWrites)
			checkPooledIndexes(t, &tx.readIdx, &tx.writeIdx)
			eng.txPool.put(tx)
		}
	})
	// "eager": OSTM acquires as it goes, so writeLocs holds every write.
	t.Run("ostm/eager", func(t *testing.T) {
		eng := NewOSTM()
		pinDescriptor(&eng.txPool)
		cells := newCells(eng)
		for _, large := range []bool{true, false} {
			call(t, eng, cells, large)
			tx := eng.txPool.get()
			checkPooledSet(t, "reads", tx.reads, tx.hiReads, bigReads)
			checkPooledSet(t, "writeLocs", tx.writeLocs, tx.hiWriteLocs, bigWrites)
			checkPooledIndexes(t, &tx.readIdx, &tx.writeIdx)
			eng.txPool.put(tx)
		}
	})
}
