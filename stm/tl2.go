package stm

// tl2ReadLockSpins bounds how many times a read re-examines a locked orec
// before giving up on the attempt; tl2CommitLockSpins bounds commit-time
// lock acquisition spinning per orec.
const (
	tl2ReadLockSpins   = 64
	tl2CommitLockSpins = 64
)

// TL2 implements Transactional Locking II (Dice, Shalev, Shavit; DISC
// 2006): a global version clock, a versioned lock word per orec, invisible
// reads validated against the clock at read time, lazy write buffering, and
// commit-time locking with a bounded spin per lock — which is what rules
// out deadlock; the write set is locked in the order it was written (see
// commit).
//
// TL2 is the representative of the "solutions already proposed" the
// STMBench7 paper cites for ASTM's O(k²) validation cost: a TL2 read
// validates in O(1) against the snapshot clock, so a k-read traversal costs
// O(k), not O(k²).
type TL2 struct {
	engineCore
	txPool   txPool[tl2Tx]
	snapPool txPool[tl2SnapTx] // read-only snapshot descriptors (RunReadOnly)
	// clock is the global version clock. It advances by 2 so that version
	// numbers are always even; bit 0 of an orec's meta word is its lock
	// bit. The padding in front of it and padUint64's own padding behind
	// keep it on a cache line of its own.
	_     [cacheLine - 8]byte
	clock padUint64
}

// NewTL2 returns a TL2 engine configured with o. TL2 honours MaxRetries,
// TxDeadline, SerialFallback, Faults, Trace and DisableROSnapshot, and
// ignores the rest.
func NewTL2(o EngineOptions) *TL2 {
	e := &TL2{}
	e.setup(e, o)
	e.txPool.init(func() *tl2Tx { return &tl2Tx{eng: e, txHead: txHead{tr: o.Trace.tap()}} })
	e.snapPool.init(func() *tl2SnapTx { return &tl2SnapTx{eng: e, txHead: txHead{tr: o.Trace.tap()}} })
	return e
}

// Name implements Engine.
func (e *TL2) Name() string { return "tl2" }

func (e *TL2) getTx() coreTx     { return e.txPool.get() }
func (e *TL2) getSnapTx() snapTx { return e.snapPool.get() }

// tl2Write is one buffered write. b is the private box val was made in (a
// cell's clone or Cell.Set's), which commit publishes in place of a fresh
// one (publishable); nil for a plain Write.
type tl2Write struct {
	v   *Var
	val any
	b   *box
}

// tl2Tx is the pooled per-transaction descriptor. reset reuses all of its
// storage — slices are truncated, the indexes generation-cleared, the
// commit scratch kept at capacity — so steady-state attempts allocate
// nothing.
type tl2Tx struct {
	txHead
	eng *TL2
	rv  uint64 // read version: clock snapshot at attempt start

	reads   []*Var
	readIdx varIndex // *Var -> index into reads

	writes   []tl2Write
	writeIdx varIndex // *Var -> index into writes

	hiReads, hiWrites int // longest reads/writes over this call's earlier attempts (pool.go)

	lockedMeta []uint64 // commit scratch: pre-lock meta per write-set entry
}

func (tx *tl2Tx) reset() {
	tx.rv = tx.eng.clock.Load()
	tx.reads = truncate(tx.reads, &tx.hiReads)
	tx.readIdx.reset()
	tx.writes = truncate(tx.writes, &tx.hiWrites)
	tx.writeIdx.reset()
}

// abortSelf implements coreTx: buffered writes are simply dropped.
func (tx *tl2Tx) abortSelf() {}

// recycle implements coreTx. Buffered user values are dropped first so a
// pooled descriptor cannot pin the last transaction's object graph; the
// scrub reaches past the final attempt's length to whatever an earlier,
// larger aborted attempt of this call left behind (pool.go).
func (tx *tl2Tx) recycle() {
	tx.writes = scrub(tx.writes, &tx.hiWrites)
	tx.reads = scrub(tx.reads, &tx.hiReads)
	tx.writeIdx.reset()
	tx.readIdx.reset()
	tx.eng.txPool.put(tx)
}

func (tx *tl2Tx) sizes() (reads, writes int) { return len(tx.reads), len(tx.writes) }

func (tx *tl2Tx) backoffSeed(attempt int) uint64 {
	return uint64(len(tx.reads)) + uint64(attempt)<<32
}

// readVar performs TL2's sampled-meta read: meta, value, meta again; the
// read is consistent iff the Var's orec was stable, unlocked, and not
// newer than rv.
func (tx *tl2Tx) readVar(v *Var) any {
	o := &v.own
	spins := 0
	for {
		m1 := o.meta.Load()
		if m1&1 == 1 {
			spins++
			if spins > tl2ReadLockSpins {
				throwConflict("read of locked var")
			}
			spinHint()
			continue
		}
		b := v.cur.Load()
		m2 := o.meta.Load()
		if m1 != m2 {
			continue
		}
		if m1 > tx.rv {
			throwConflict("read version too new")
		}
		if _, ok := tx.readIdx.getOrPut(v, int32(len(tx.reads))); !ok {
			tx.reads = append(tx.reads, v)
		}
		return b.val
	}
}

// Read implements Tx.
func (tx *tl2Tx) Read(v *Var) any {
	tx.st.reads++
	if i, ok := tx.writeIdx.get(v); ok {
		return tx.writes[i].val
	}
	return tx.readVar(v)
}

// Write implements Tx (lazy: buffered until commit).
func (tx *tl2Tx) Write(v *Var, val any) {
	tx.st.writes++
	if i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes))); ok {
		tx.writes[i].val = val
		return
	}
	tx.writes = append(tx.writes, tl2Write{v: v, val: val})
}

// set implements cellTx: Write(v, b.val), publishing b.
func (tx *tl2Tx) set(v *Var, b *box) {
	tx.st.writes++
	if i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes))); ok {
		tx.writes[i].val, tx.writes[i].b = b.val, b
		return
	}
	tx.writes = append(tx.writes, tl2Write{v: v, val: b.val, b: b})
}

// Update implements Tx.
func (tx *tl2Tx) Update(v *Var, f func(val any) any) {
	tx.st.writes++
	i := tx.updateSlot(v)
	val := f(tx.writes[i].val) // f may grow tx.writes
	tx.writes[i].val = val
}

// mut implements cellTx: Update(v, keep), then Read(v).
func (tx *tl2Tx) mut(v *Var) any {
	tx.st.writes++
	i := tx.updateSlot(v)
	tx.st.reads++
	return tx.writes[i].val
}

// updateSlot returns v's write-set index for an update. A first update
// reads the current value (which joins the read set, guarding against lost
// updates), clones it into a private box, and buffers the copy with its
// box.
func (tx *tl2Tx) updateSlot(v *Var) int32 {
	i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes)))
	if ok {
		return i
	}
	// The index entry is in place before the readVar below; a conflict
	// thrown there unwinds the whole attempt, so the index is never seen
	// ahead of its slice entry.
	w := tl2Write{v: v, val: tx.readVar(v)}
	w.b = v.clone(w.val)
	w.val = w.b.val
	tx.st.clones++
	tx.writes = append(tx.writes, w)
	return i
}

// releaseLocks restores the saved meta of the first `entries` write-set
// entries' orecs, undoing a failed commit's lock acquisitions.
func (tx *tl2Tx) releaseLocks(entries int) {
	for i := 0; i < entries; i++ {
		tx.writes[i].v.own.meta.Store(tx.lockedMeta[i])
	}
}

// commit implements TL2's commit protocol: lock the write set's orecs,
// advance the clock, validate the read set, write back, unlock. The locks
// are taken in the order the body wrote — the paper's step 3 is "acquire
// the locks in any convenient order using bounded spinning to avoid
// indefinite deadlock" (Dice, Shalev, Shavit; DISC 2006, §2.1), and the
// bounded spin is tl2CommitLockSpins: two committers that meet on crossing
// lock orders cannot wait for each other forever, the one whose spin runs
// out releases what it holds, fails the attempt and backs off. An abort of
// that kind always has a concurrent conflicting committer behind it, so the
// order is a choice of cost, not of correctness.
func (tx *tl2Tx) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions validated every read against rv at read
		// time; they commit with no further synchronization.
		return true
	}

	// Fault probes: a forced abort unwinds here, before any lock is
	// taken, so there is never anything to release; the pre-commit stall
	// pauses the committer while it still holds nothing. Suppressed for
	// serial attempts — an injected abort would break irrevocability.
	if f := tx.eng.faults; f != nil && !tx.serial {
		if f.fire(FaultAbort, &tx.eng.stats) {
			throwInjectedFault()
		}
		f.stallAt(FaultPreCommit, &tx.eng.stats)
	}

	// Every Var has its own orec, so the write set is locked as it stands
	// and lockedMeta[i] belongs to writes[i], which writeIdx indexes.
	if cap(tx.lockedMeta) < len(tx.writes) {
		tx.lockedMeta = make([]uint64, len(tx.writes))
	}
	tx.lockedMeta = tx.lockedMeta[:len(tx.writes)]
	for i := range tx.writes {
		o := &tx.writes[i].v.own
		spins := 0
		for {
			m := o.meta.Load()
			if m&1 == 0 && o.meta.CompareAndSwap(m, m|1) {
				tx.lockedMeta[i] = m
				break
			}
			spins++
			if spins > tl2CommitLockSpins {
				tx.releaseLocks(i)
				tx.st.lockFailures++
				return false
			}
			spinHint()
		}
	}

	// Whole write set locked: the flight recorder's lock-acquire mark.
	if tx.tr.rec != nil {
		tx.tr.note(TraceLock, uint64(len(tx.writes)), 0)
	}

	// Clock-stamp delay: stall between lock acquisition and the tick, the
	// window that stretches the distance between wv and concurrent reads.
	if f := tx.eng.faults; f != nil && !tx.serial {
		f.stallAt(FaultClockTick, &tx.eng.stats)
	}
	wv := tx.eng.clock.Add(2)

	// Validate the read set unless nobody else committed since we started
	// (wv == rv+2 proves that: every commit stamp is unique).
	if wv != tx.rv+2 {
		if tx.tr.rec != nil {
			tx.tr.note(TraceValidate, uint64(len(tx.reads)), 0)
		}
		tx.st.validations += uint64(len(tx.reads))
		for _, v := range tx.reads {
			m := v.own.meta.Load()
			if m&1 == 1 {
				// Locked: only fine if we hold the lock, in which case the
				// pre-lock version must not exceed rv.
				if i, ok := tx.writeIdx.get(v); ok && tx.lockedMeta[i] <= tx.rv {
					continue
				}
				tx.releaseLocks(len(tx.writes))
				return false
			}
			if m > tx.rv {
				tx.releaseLocks(len(tx.writes))
				return false
			}
		}
	}

	// Write back, then unlock each orec by publishing the new version. A
	// cell's write publishes the box its value was made in; a plain Write
	// gets a fresh one here. Published boxes are immutable snapshots that
	// concurrent readers may hold indefinitely, so they can never be
	// recycled from the descriptor.
	for i := range tx.writes {
		w := &tx.writes[i]
		w.v.cur.Store(publishable(w.b, w.val))
	}
	// Lock-holder pause: every write orec is still locked, so this stall
	// is the worst case for everyone else — readers spin, committers of
	// overlapping write sets fail their lock loops.
	if f := tx.eng.faults; f != nil && !tx.serial {
		f.stallAt(FaultLockHold, &tx.eng.stats)
	}
	for i := range tx.writes {
		tx.writes[i].v.own.meta.Store(wv)
	}
	return true
}

var (
	_ Engine = (*TL2)(nil)
	_ coreTx = (*tl2Tx)(nil)
	_ cellTx = (*tl2Tx)(nil)
)
