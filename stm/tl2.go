package stm

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// TL2Config tunes the TL2 engine.
type TL2Config struct {
	// MaxRetries bounds re-executions; 0 means retry forever. When the
	// budget is exhausted Atomic returns ErrAborted.
	MaxRetries int
	// EngineOptions carries the spec-addressable knobs. TL2 honours
	// Granularity, OrecStripes, ClockShards, Versions, LockCoalescing,
	// TxDeadline, SerialFallback, Faults, Trace and DisableROSnapshot, and
	// ignores the rest.
	EngineOptions
}

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
	space    VarSpace
	cfg      TL2Config
	stats    statCounters
	txPool   txPool[tl2Tx]
	snapPool txPool[tl2SnapTx] // read-only snapshot descriptors (RunReadOnly)
	striped  bool
	// coalesce routes commit-time locking through the striped table's
	// group gate words (LockCoalescing under striped granularity).
	coalesce bool
	// clock is the global version clock (optionally sharded; see
	// clock.go). It advances by 2 so that version numbers are always
	// even; bit 0 of an orec's meta word is its lock bit.
	clock gvClock
	// txSeq hands each new descriptor a distinct clock-shard affinity.
	txSeq atomic.Uint64
	// gate is the serial-fallback token (nil unless SerialFallback).
	gate *serialGate
	// faults is the engine's private fault-plan snapshot (nil = none).
	faults *FaultPlan
}

// NewTL2 returns a TL2 engine with default configuration.
func NewTL2() *TL2 { return NewTL2With(TL2Config{}) }

func init() {
	RegisterTunable("tl2", func(o EngineOptions) Engine { return NewTL2With(TL2Config{EngineOptions: o}) })
}

// NewTL2With returns a TL2 engine with explicit configuration.
func NewTL2With(cfg TL2Config) *TL2 {
	cfg.Versions = normalizeVersions(cfg.Versions)
	e := &TL2{cfg: cfg, striped: cfg.Granularity == StripedGranularity}
	e.coalesce = cfg.LockCoalescing && e.striped
	if err := e.space.ConfigureOrecs(cfg.Granularity, cfg.OrecStripes); err != nil {
		panic(err) // unreachable: the space is brand new and the size is clamped
	}
	e.clock.init(cfg.ClockShards)
	if cfg.SerialFallback {
		e.gate = &serialGate{}
	}
	e.faults = cfg.Faults.fresh()
	e.txPool.init(func() *tl2Tx {
		return &tl2Tx{eng: e, shardHint: e.txSeq.Add(1), tr: cfg.Trace.tap()}
	})
	e.snapPool.init(func() *tl2SnapTx { return &tl2SnapTx{eng: e, tr: cfg.Trace.tap()} })
	return e
}

// Name implements Engine.
func (e *TL2) Name() string { return "tl2" }

// VarSpace implements Engine.
func (e *TL2) VarSpace() *VarSpace { return &e.space }

// Stats implements Engine.
func (e *TL2) Stats() Stats {
	s := e.stats.snapshot()
	s.ClockShards, s.ClockShardSpread = e.clock.spread()
	return s
}

// Atomic implements Engine.
func (e *TL2) Atomic(fn func(tx Tx) error) error {
	return e.atomicFrom(fn, deadlineFor(e.cfg.TxDeadline))
}

// txDeadline starts a fresh absolute deadline per the engine config; the
// snapshot loop (snapshot.go) calls it at RunReadOnly entry so restarts
// and the validating fallback share one budget.
func (e *TL2) txDeadline() int64 { return deadlineFor(e.cfg.TxDeadline) }

// atomicFrom is the retry loop behind Atomic. deadline is an absolute
// nanotime bound (0 = none): Atomic derives it from cfg.TxDeadline, and
// the snapshot fallback passes the deadline its RunReadOnly call started
// with, so time burned on snapshot restarts stays on the same budget.
func (e *TL2) atomicFrom(fn func(tx Tx) error, deadline int64) error {
	gate := e.gate
	if gate != nil {
		gate.mu.RLock()
	}
	tx := e.txPool.get()
	for attempt := 0; ; attempt++ {
		if cause := budgetCause(attempt, e.cfg.MaxRetries, deadline, tx.injected, gate != nil); cause != NoAbort {
			if gate != nil {
				return e.runSerial(tx, fn)
			}
			e.putTx(tx)
			return abortErrorFor(cause, &e.stats)
		}
		tx.reset()
		if tx.tr.rec != nil {
			tx.tr.note(TraceBegin, uint64(attempt), 0)
		}
		committed, err := e.runAttempt(tx, fn)
		if tx.tr.rec != nil {
			noteOutcome(tx.tr, committed, err != nil, tx.injected,
				uint64(len(tx.reads)), uint64(len(tx.writes)), uint64(attempt))
		}
		e.stats.flushTx(&tx.st)
		if committed {
			e.stats.commits.Add(1)
			e.putTx(tx)
			if gate != nil {
				gate.mu.RUnlock()
			}
			return nil
		}
		if err != nil {
			e.stats.userAborts.Add(1)
			e.putTx(tx)
			if gate != nil {
				gate.mu.RUnlock()
			}
			return err
		}
		e.stats.conflictAborts.Add(1)
		spinWait(backoffDur(attempt, uint64(len(tx.reads))+uint64(attempt)<<32))
	}
}

// runSerial escalates tx to the irrevocable serial mode: trade the
// shared token (held by atomicFrom) for the exclusive one, then re-run
// with fault injection suppressed. With no other Atomic attempt running
// anywhere on the engine the attempt cannot be invalidated, so the loop
// exits on its first iteration; it is a loop only for defense in depth.
func (e *TL2) runSerial(tx *tl2Tx, fn func(tx Tx) error) error {
	e.gate.mu.RUnlock()
	e.gate.mu.Lock()
	defer e.gate.mu.Unlock()
	e.stats.serialFallbacks.Add(1)
	if tx.tr.rec != nil {
		tx.tr.note(TraceSerial, 0, 0)
	}
	tx.serial = true
	for {
		tx.reset()
		committed, err := e.runAttempt(tx, fn)
		e.stats.flushTx(&tx.st)
		if committed || err != nil {
			if committed {
				e.stats.commits.Add(1)
			} else {
				e.stats.userAborts.Add(1)
			}
			tx.serial = false // scrub before pooling: descriptors outlive the escalation
			e.putTx(tx)
			return err
		}
		e.stats.conflictAborts.Add(1)
	}
}

// putTx recycles a descriptor. Buffered user values are dropped first so a
// pooled descriptor cannot pin the last transaction's object graph; the
// scrub reaches past the final attempt's length to whatever an earlier,
// larger aborted attempt of this call left behind (pool.go).
func (e *TL2) putTx(tx *tl2Tx) {
	tx.writes = scrub(tx.writes, &tx.hiWrites)
	tx.reads = scrub(tx.reads, &tx.hiReads)
	tx.writeIdx.reset()
	tx.readIdx.reset()
	e.txPool.put(tx)
}

func (e *TL2) runAttempt(tx *tl2Tx, fn func(tx Tx) error) (committed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			tx.injected = rethrowIfNotConflict(r).injected
			committed, err = false, nil
		}
	}()
	if err := fn(tx); err != nil {
		return false, err // buffered writes are simply dropped
	}
	return tx.commit(), nil
}

// tl2Write is one buffered write.
type tl2Write struct {
	v   *Var
	val any
}

// dupMeta marks a write-set entry whose orec was already locked by an
// earlier entry of the same (sorted) write set — only possible under
// striped granularity, where several written Vars can share one orec. It
// is odd, so it can never collide with a saved pre-lock meta (those are
// sampled unlocked, i.e. even).
const dupMeta = ^uint64(0)

// tl2Tx is the pooled per-transaction descriptor. reset reuses all of its
// storage — slices are truncated, the indexes generation-cleared, the
// commit scratch kept at capacity — so steady-state attempts allocate
// nothing.
type tl2Tx struct {
	eng       *TL2
	rv        uint64  // read version: clock snapshot at attempt start
	shardHint uint64  // commit-clock shard affinity, fixed per descriptor
	st        txStats // per-attempt counters, flushed by Atomic

	reads   []*Var
	readIdx varIndex // *Var -> index into reads

	writes   []tl2Write
	writeIdx varIndex // *Var -> index into writes

	hiReads, hiWrites int // longest reads/writes over this call's earlier attempts (pool.go)

	lockedMeta []uint64 // commit scratch: pre-lock meta per write-set entry (dupMeta for same-orec duplicates)

	tr traceTap // flight-recorder handle (tr.rec nil = tracing off)

	serial   bool // attempt runs under the exclusive serial token (suppresses fault probes)
	injected bool // last abort of this call was a FaultPlan forced abort
}

func (tx *tl2Tx) reset() {
	tx.rv = tx.eng.clock.read()
	tx.reads = truncate(tx.reads, &tx.hiReads)
	tx.readIdx.reset()
	tx.writes = truncate(tx.writes, &tx.hiWrites)
	tx.writeIdx.reset()
	tx.injected = false
}

// noteFalseConflict classifies a conflict on o, hit while accessing v, as
// false when the metadata was last locked on behalf of a different Var —
// only possible under striped granularity.
func (tx *tl2Tx) noteFalseConflict(o *orec, v *Var) {
	if tx.eng.striped && o.lastWriter.Load() != v.id {
		tx.st.falseConflicts++
	}
}

// readVar performs TL2's sampled-meta read: meta, value, meta again; the
// read is consistent iff the Var's orec was stable, unlocked, and not
// newer than rv.
func (tx *tl2Tx) readVar(v *Var) any {
	o := v.orc
	spins := 0
	for {
		m1 := o.meta.Load()
		if m1&1 == 1 {
			spins++
			if spins > tl2ReadLockSpins {
				tx.noteFalseConflict(o, v)
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
			tx.noteFalseConflict(o, v)
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

// Update implements Tx. A first Update reads the current value (which joins
// the read set, guarding against lost updates), clones it if the Var has a
// clone function, applies f, and buffers the result.
func (tx *tl2Tx) Update(v *Var, f func(val any) any) {
	tx.st.writes++
	if i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes))); ok {
		tx.writes[i].val = f(tx.writes[i].val)
		return
	}
	// The index entry is in place before the readVar below; a conflict
	// thrown there unwinds the whole attempt, so the index is never seen
	// ahead of its slice entry.
	cur := tx.readVar(v)
	if v.clone != nil {
		cur = v.clone(cur)
		tx.st.clones++
	}
	tx.writes = append(tx.writes, tl2Write{v: v, val: f(cur)})
}

// releaseLocks restores the saved meta of the first `entries` write-set
// entries' orecs, undoing a failed commit's lock acquisitions (same-orec
// duplicates carry dupMeta and are skipped). Under lock coalescing the
// gate bit in the table's group word is cleared after the meta restore —
// per orec here, since this is the rare failure path; the success path
// coalesces its gate clears per group word (see unlockWrites).
func (tx *tl2Tx) releaseLocks(entries int) {
	coalesce := tx.eng.coalesce
	groups := tx.eng.space.orecs.groups
	for i := 0; i < entries; i++ {
		if tx.lockedMeta[i] == dupMeta {
			continue
		}
		o := tx.writes[i].v.orc
		o.meta.Store(tx.lockedMeta[i])
		if coalesce {
			groups[o.id>>orecGroupShift].And(^orecGroupBit(o.id))
		}
	}
}

// lockWriteSetCoalesced acquires the sorted write set's orec locks through
// the striped table's group gate words: each run of adjacent same-group
// orecs is claimed with ONE CAS setting the run's bits in the shared word,
// then each orec's meta lock bit is marked with a plain store — legal
// because under coalescing every committer of this engine serializes on
// the gate bits, making the meta bit a reader-only signal that is always
// even once the gate is owned. A contended multi-bit CAS falls back to
// claiming that run's bits one orec at a time, so an overlapping commit to
// a different stripe of the same word delays rather than kills the run.
// Returns false (with everything already released) when a gate bit stays
// contended past the tl2CommitLockSpins bound.
func (tx *tl2Tx) lockWriteSetCoalesced() bool {
	groups := tx.eng.space.orecs.groups
	i := 0
	for i < len(tx.writes) {
		o := tx.writes[i].v.orc
		if i > 0 && tx.writes[i-1].v.orc == o {
			tx.lockedMeta[i] = dupMeta
			i++
			continue
		}
		// Collect the run: distinct orecs (dups ride along) sharing o's
		// group word. The write set is sorted by orec id, so same-group
		// stripes are adjacent.
		g := o.id >> orecGroupShift
		mask := orecGroupBit(o.id)
		run := 1
		j := i + 1
		for j < len(tx.writes) {
			oj := tx.writes[j].v.orc
			if oj == tx.writes[j-1].v.orc {
				j++ // duplicate of the previous entry; marked below
				continue
			}
			if oj.id>>orecGroupShift != g {
				break
			}
			mask |= orecGroupBit(oj.id)
			run++
			j++
		}
		// One CAS for the whole run; on contention, per-orec gate bits.
		word := &groups[g]
		spins := 0
		coalesced := false
		for {
			old := word.Load()
			if old&mask == 0 {
				if word.CompareAndSwap(old, old|mask) {
					coalesced = run > 1
					break
				}
				continue // raced another committer; retry, no spin charged
			}
			if run > 1 {
				// Group contention: fall back to claiming this run's
				// bits one orec at a time so the free stripes make
				// progress while the busy one is waited out.
				if !tx.lockRunPerOrec(word, i, j) {
					return false
				}
				break
			}
			spins++
			if spins > tl2CommitLockSpins {
				tx.releaseLocks(i)
				return false
			}
			spinHint()
		}
		// Gate bits held for [i, j): record pre-lock metas and raise the
		// reader-visible lock bits. The metas are even by the gate-word
		// invariant (a locked meta implies a set gate bit).
		for k := i; k < j; k++ {
			v := tx.writes[k].v
			ok := v.orc
			if k > i && tx.writes[k-1].v.orc == ok {
				tx.lockedMeta[k] = dupMeta
				continue
			}
			m := ok.meta.Load()
			tx.lockedMeta[k] = m
			ok.meta.Store(m | 1)
			ok.lastWriter.Store(v.id)
		}
		if coalesced {
			tx.st.coalescedLocks += uint64(run)
		}
		i = j
	}
	return true
}

// lockRunPerOrec is lockWriteSetCoalesced's contention fallback: claim the
// gate bits of the distinct orecs in write-set entries [i, j) one at a
// time. On spin exhaustion it clears the bits it took, restores the fully
// acquired prefix via releaseLocks(i), and reports failure.
func (tx *tl2Tx) lockRunPerOrec(word *padUint64, i, j int) bool {
	var held uint64
	for k := i; k < j; k++ {
		o := tx.writes[k].v.orc
		if k > i && tx.writes[k-1].v.orc == o {
			continue
		}
		bit := orecGroupBit(o.id)
		spins := 0
		for {
			old := word.Load()
			if old&bit == 0 {
				if word.CompareAndSwap(old, old|bit) {
					held |= bit
					break
				}
				continue
			}
			spins++
			if spins > tl2CommitLockSpins {
				if held != 0 {
					word.And(^held)
				}
				tx.releaseLocks(i)
				return false
			}
			spinHint()
		}
	}
	return true
}

// unlockWrites publishes wv to every locked orec's meta and, under lock
// coalescing, clears the gate bits — one atomic And per group word, the
// release-side mirror of the coalesced acquire.
func (tx *tl2Tx) unlockWrites(wv uint64) {
	if !tx.eng.coalesce {
		for i := range tx.writes {
			if tx.lockedMeta[i] == dupMeta {
				continue
			}
			tx.writes[i].v.orc.meta.Store(wv)
		}
		return
	}
	groups := tx.eng.space.orecs.groups
	curG := ^uint64(0)
	var mask uint64
	for i := range tx.writes {
		if tx.lockedMeta[i] == dupMeta {
			continue
		}
		o := tx.writes[i].v.orc
		o.meta.Store(wv)
		g := o.id >> orecGroupShift
		if g != curG {
			if mask != 0 {
				groups[curG].And(^mask)
			}
			curG, mask = g, 0
		}
		mask |= orecGroupBit(o.id)
	}
	if mask != 0 {
		groups[curG].And(^mask)
	}
}

// heldMetaAt returns the saved pre-lock meta for the write-set entry at
// index i, following same-orec duplicates back to their group leader. Under
// striped granularity commit sorted the write set by orec, so a duplicate's
// leader is adjacent below it. Under object granularity the write set is in
// the order it was written, but every entry has an orec of its own, none is
// marked dupMeta, and the loop ends before its first step.
func (tx *tl2Tx) heldMetaAt(i int) uint64 {
	for tx.lockedMeta[i] == dupMeta {
		i--
	}
	return tx.lockedMeta[i]
}

// heldMetaFor reports whether this transaction holds the commit lock on o
// and, if so, the orec's pre-lock meta. Only reachable under striped
// granularity (a read Var sharing a locked stripe with a written one
// without being written itself); the scan is O(write set), on the
// already-contended path.
func (tx *tl2Tx) heldMetaFor(o *orec) (uint64, bool) {
	for i := range tx.writes {
		if tx.writes[i].v.orc == o {
			return tx.heldMetaAt(i), true
		}
	}
	return 0, false
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

	// Under object granularity writeIdx already holds one entry per Var, a
	// Var is its own orec, and the write set is locked as it stands:
	// writes[i], writeIdx and lockedMeta[i] stay aligned with no work.
	// Under striped granularity several writes may share an orec; sorting
	// makes them adjacent, so each orec is locked exactly once (and the
	// coalesced path finds a group word's stripes next to each other).
	if tx.eng.striped {
		sortWritesByOrec(tx.writes)
		for i := range tx.writes {
			tx.writeIdx.put(tx.writes[i].v, int32(i)) // reindex after sorting
		}
	}
	if cap(tx.lockedMeta) < len(tx.writes) {
		tx.lockedMeta = make([]uint64, len(tx.writes))
	}
	tx.lockedMeta = tx.lockedMeta[:len(tx.writes)]
	if tx.eng.coalesce {
		if !tx.lockWriteSetCoalesced() {
			tx.st.lockFailures++
			return false
		}
	} else {
		for i := range tx.writes {
			v := tx.writes[i].v
			o := v.orc
			if i > 0 && tx.writes[i-1].v.orc == o {
				tx.lockedMeta[i] = dupMeta
				continue
			}
			spins := 0
			for {
				m := o.meta.Load()
				if m&1 == 0 && o.meta.CompareAndSwap(m, m|1) {
					tx.lockedMeta[i] = m
					if tx.eng.striped {
						o.lastWriter.Store(v.id)
					}
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
	wv := tx.eng.clock.tick(tx.shardHint)

	// Validate the read set unless nobody else committed since we started
	// (wv == rv+2 proves that only for the unsharded clock, whose stamps
	// are unique; a sharded clock always validates — see gvClock).
	if wv != tx.rv+2 || tx.eng.clock.sharded() {
		if tx.tr.rec != nil {
			tx.tr.note(TraceValidate, uint64(len(tx.reads)), 0)
		}
		tx.st.validations += uint64(len(tx.reads))
		for _, v := range tx.reads {
			o := v.orc
			m := o.meta.Load()
			if m&1 == 1 {
				// Locked: only fine if we hold the lock, in which case the
				// pre-lock version must not exceed rv.
				if i, ok := tx.writeIdx.get(v); ok {
					if tx.heldMetaAt(int(i)) > tx.rv {
						tx.releaseLocks(len(tx.writes))
						return false
					}
					continue
				}
				if tx.eng.striped {
					// The Var itself was not written, but its stripe may be
					// locked by one of our writes to a stripe-mate.
					if saved, ok := tx.heldMetaFor(o); ok {
						if saved > tx.rv {
							tx.releaseLocks(len(tx.writes))
							return false
						}
						continue
					}
				}
				tx.noteFalseConflict(o, v)
				tx.releaseLocks(len(tx.writes))
				return false
			}
			if m > tx.rv {
				tx.noteFalseConflict(o, v)
				tx.releaseLocks(len(tx.writes))
				return false
			}
		}
	}

	// Write back, then unlock each orec by publishing the new version. The
	// box per written Var is the one unavoidable commit allocation:
	// published boxes are immutable snapshots that concurrent readers may
	// hold indefinitely, so they can never be recycled from the
	// descriptor. All boxes land before any orec unlocks so that a reader
	// of one stripe-mate can never observe a mix of old and new values
	// under an unlocked meta word. Under Versions > 1 the superseded box
	// is linked behind the new one (same single allocation) so snapshot
	// readers at older rv can resolve it; see mvcc.go.
	keep := tx.eng.cfg.Versions
	for i := range tx.writes {
		w := &tx.writes[i]
		publishVersion(w.v, &box{val: w.val, wv: wv}, keep, &tx.st)
	}
	// Lock-holder pause: every write orec is still locked, so this stall
	// is the worst case for everyone else — readers spin, committers of
	// overlapping write sets fail their lock loops.
	if f := tx.eng.faults; f != nil && !tx.serial {
		f.stallAt(FaultLockHold, &tx.eng.stats)
	}
	tx.unlockWrites(wv)
	return true
}

// sortWritesByOrec sorts in place by (orec id, Var id). Only striped
// granularity calls it: there the writes that share a stripe must be
// adjacent for commit to lock the stripe once, and the stripes of one group
// word adjacent for the coalesced path to claim them with one CAS; the
// Var-id tiebreak makes same-orec groups deterministic. Small write sets
// (almost every STMBench7 operation) use an insertion sort — no closure, no
// reflection; structural-modification transactions with large write sets
// fall back to the standard-library sort to avoid the O(n²) blowup.
func sortWritesByOrec(ws []tl2Write) {
	if len(ws) > 32 {
		slices.SortFunc(ws, func(a, b tl2Write) int {
			if c := cmp.Compare(a.v.orc.id, b.v.orc.id); c != 0 {
				return c
			}
			return cmp.Compare(a.v.id, b.v.id)
		})
		return
	}
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && writeOrder(ws[j], ws[j-1]); j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func writeOrder(a, b tl2Write) bool {
	if a.v.orc.id != b.v.orc.id {
		return a.v.orc.id < b.v.orc.id
	}
	return a.v.id < b.v.id
}

var (
	_ Engine = (*TL2)(nil)
	_ Tx     = (*tl2Tx)(nil)
)
