package stm

// Visible-reads mode for the OSTM engine.
//
// The paper's §5 diagnosis is that ASTM's *invisible* reads force a
// transaction to re-validate its whole read set on every open — O(k²) work
// for k reads. The classic alternative (present in DSTM and ASTM's design
// space) makes readers visible: a reader registers itself on the Var's
// ownership record, and a writer that wants the orec must first win an
// arbitration against every live registered reader. Validation disappears
// entirely; the price is a CAS (and its cache-line ping-pong) per first
// read of every orec, and writer/reader contention that the contention
// manager must now arbitrate explicitly. This file implements that mode
// (EngineOptions.VisibleReads); README's "§5's fixes, per engine" measures
// both sides of the trade.
//
// Protocol invariants:
//
//   - A reader may hold a Var's value only while it is registered on the
//     Var's orec and the orec has no live owner. Registration therefore
//     re-checks ownership after the CAS: if a writer slipped in, the
//     reader backs out and arbitrates.
//   - A writer, after installing its locator, arbitrates with every
//     registered live reader (abort them or itself, per the contention
//     manager). Readers that register later observe the live locator and
//     arbitrate from their side.
//   - Commits need no validation: any transaction whose read set would
//     have been invalidated was aborted by the committing writer first.
//     The cross-validation race of invisible mode cannot occur because
//     read-write conflicts are symmetric and eager here.

// registerReader adds tx to o's reader set, pruning entries of finished
// transactions while copying (the set is immutable; replacement is by CAS).
// Registration publishes tx.state: reader-set entries may survive the
// attempt, so a registered state must never be recycled (reset allocates a
// fresh state per attempt in visible mode).
func (tx *ostmTx) registerReader(o *orec) {
	tx.stateShared = true
	for {
		old := o.readers.Load()
		var list []*txState
		if old != nil {
			list = make([]*txState, 0, len(old.list)+1)
			for _, r := range old.list {
				if r == tx.state {
					return // already registered
				}
				if s := r.status.Load(); s == statusActive || s == statusValidating {
					list = append(list, r)
				}
			}
		}
		list = append(list, tx.state)
		if o.readers.CompareAndSwap(old, &readerSet{list: list}) {
			return
		}
	}
}

// unregisterReader removes tx from o's reader set (used when a registration
// raced with a writer and must be rolled back).
func (tx *ostmTx) unregisterReader(o *orec) {
	for {
		old := o.readers.Load()
		if old == nil {
			return
		}
		list := make([]*txState, 0, len(old.list))
		for _, r := range old.list {
			if r == tx.state {
				continue
			}
			if s := r.status.Load(); s == statusActive || s == statusValidating {
				list = append(list, r)
			}
		}
		if len(list) == len(old.list) {
			return // we were not in it
		}
		if o.readers.CompareAndSwap(old, &readerSet{list: list}) {
			return
		}
	}
}

// visibleRead implements Tx.Read for visible-reads mode. The returned box
// is stable for the transaction's lifetime: any writer that could change it
// must abort this transaction first.
func (tx *ostmTx) visibleRead(v *Var) any {
	if i, ok := tx.writeIdx.get(v); ok {
		return tx.writeLocs[i].new.val
	}
	if i, ok := tx.readIdx.get(v); ok {
		return tx.reads[i].seen.val
	}
	o := &v.own
	cm := tx.eng.opts.CM
	attempt := 0
	for {
		tx.checkAlive()
		// Arbitrate with a live owner before registering.
		if loc := o.loc.Load(); loc != nil && loc.owner != tx.state {
			if s := loc.owner.status.Load(); s == statusActive || s == statusValidating {
				switch cm.OnConflict(tx.state, loc.owner, attempt) {
				case Wait:
					spinWait(cm.WaitDuration(tx.state, attempt))
					attempt++
				case AbortEnemy:
					tx.abortEnemy(loc.owner)
				case AbortSelf:
					throwConflict("read-write conflict (visible)")
				}
				continue
			}
		}
		tx.registerReader(o)
		// Re-check: a writer may have acquired between our ownership check
		// and the registration becoming visible to its reader scan.
		if loc := o.loc.Load(); loc != nil && loc.owner != tx.state {
			if s := loc.owner.status.Load(); s == statusActive || s == statusValidating {
				tx.unregisterReader(o)
				continue
			}
		}
		b := tx.resolveRead(v)
		tx.readIdx.put(v, int32(len(tx.reads)))
		tx.reads = append(tx.reads, readEntry{v: v, seen: b})
		tx.state.opens.Add(1)
		// Doomed-reader guard: a writer invalidating one of our earlier
		// reads kills us BEFORE it commits, but this read may have
		// resolved AFTER that commit. Being alive here proves no such
		// writer committed, so the value is consistent with every earlier
		// read; if we were killed, the stale mix must not escape.
		tx.checkAlive()
		return b.val
	}
}

// arbitrateReaders is called by a visible-mode writer right after acquiring
// a slot on o: every live registered reader other than ourselves must die
// or we must.
func (tx *ostmTx) arbitrateReaders(o *orec) {
	if !tx.eng.opts.VisibleReads {
		return
	}
	cm := tx.eng.opts.CM
	attempt := 0
	for {
		rs := o.readers.Load()
		if rs == nil {
			return
		}
		var enemy *txState
		for _, r := range rs.list {
			if r == tx.state {
				continue
			}
			if s := r.status.Load(); s == statusActive || s == statusValidating {
				enemy = r
				break
			}
		}
		if enemy == nil {
			return
		}
		switch cm.OnConflict(tx.state, enemy, attempt) {
		case Wait:
			spinWait(cm.WaitDuration(tx.state, attempt))
			attempt++
		case AbortEnemy:
			tx.abortEnemy(enemy)
		case AbortSelf:
			throwConflict("write-read conflict (visible)")
		}
		tx.checkAlive()
	}
}
