package stm

import (
	"runtime"
	"sync/atomic"
)

func yield() { runtime.Gosched() }

// Transaction status values. A transaction moves Active → Validating →
// Committed on success; enemies may CAS it to Aborted from Active or
// Validating (never from Committed).
const (
	statusActive uint32 = iota
	statusValidating
	statusCommitted
	statusAborted
)

// txState is the shared, lock-free handle through which other transactions
// observe and (with contention-manager blessing) abort a transaction. Once
// published (installed in a locator or a reader set), a txState belongs to
// that attempt forever: locators installed by dead attempts keep pointing
// at the status of the attempt that installed them. A state that was never
// published is private to its descriptor and may be reused by the next
// attempt (see ostmTx.reset).
type txState struct {
	status atomic.Uint32
	opens  atomic.Uint64 // objects opened so far (contention-manager priority)
}

// Opens implements TxInfo.
func (s *txState) Opens() uint64 { return s.opens.Load() }

// wslot is one write slot: the copy-on-write value pair for the single Var
// a locator covers. new is nil until the owner's first write fills it — a
// plain box for Write, the box a cell's value was made in for Cell.Set, the
// private clone for an update — so an acquisition allocates no box the
// write would replace. Only the owning transaction touches new before
// commit; others read it only after finding the owner Committed.
type wslot struct {
	v   *Var
	old *box
	new *box
}

// locator is OSTM's ownership record payload, after DSTM's TMObject
// locator: the covered Var's current logical value is old or new depending
// on owner's status. The orec is private to one Var, so a locator covers
// exactly that Var, its inline slot.
//
// A locator is only ever installed over an empty slot and is retired — a
// committed owner's value written back to its Var, then the slot cleared
// (see retire) — by the transaction that committed it, right after its
// Committed flip, or else by the next acquirer. So Var.cur is the committed
// value whenever the orec holds no locator, and a Var nobody is writing is
// one object to its readers and validators.
//
// ownerState is inline storage for the owning transaction's state: the
// first locator a transaction installs carries the state the rest of its
// locators point to, making a small write transaction one allocation
// cheaper. It is inert (owner points elsewhere) for every later locator.
// The state may be embedded here rather than in the descriptor because a
// locator, once installed, is immutable and lives as long as anything
// references its owner — exactly the lifetime the status word needs.
type locator struct {
	owner *txState
	wslot
	ownerState txState
}

// OSTM is an object-based STM in the DSTM/ASTM tradition: eager write
// acquisition through locators, invisible reads with incremental read-set
// validation, copy-on-write object logging, contention management.
//
// It deliberately reproduces the cost model §5 of the STMBench7 paper
// ascribes to ASTM: validation work quadratic in the read-set size, and
// whole-object copies for every first write to an object.
type OSTM struct {
	engineCore
	opts     EngineOptions // as constructed, CM defaulted
	txPool   txPool[ostmTx]
	snapPool txPool[ostmSnapTx] // read-only snapshot descriptors (RunReadOnly)
	// commitSerial counts write transactions that reached their commit
	// point. It is bumped just before the Committed status flip, so any
	// observer that sees a Committed owner also sees the bump — which is
	// what makes it a sound change detector for both consumers: the
	// commit-counter validation heuristic (an unchanged serial proves no
	// write became visible since the last pass) and the read-only
	// snapshot path (an unchanged serial proves a resolved value still
	// belongs to the sampled snapshot). A transaction killed at the final
	// CAS leaves a spurious bump behind; both consumers only pay an extra
	// validation pass or snapshot restart for it, never correctness.
	commitSerial atomic.Uint64
}

// NewOSTM returns an OSTM engine configured with o; zero options are the
// paper's configuration: Polka contention management and incremental
// validation. OSTM honours CM, CommitTimeValidationOnly (off = the faithful
// O(k²) incremental validation), CommitCounterHeuristic, VisibleReads,
// MaxRetries, TxDeadline, SerialFallback, Faults, Trace and
// DisableROSnapshot: every option.
func NewOSTM(o EngineOptions) *OSTM {
	if o.CM == nil {
		o.CM = Polka{}
	}
	e := &OSTM{opts: o}
	e.setup(e, o)
	e.txPool.init(func() *ostmTx { return &ostmTx{eng: e, txHead: txHead{hook: e.hook()}} })
	e.snapPool.init(func() *ostmSnapTx { return &ostmSnapTx{eng: e, txHead: txHead{hook: e.hook()}} })
	return e
}

// Name implements Engine.
func (e *OSTM) Name() string { return "ostm" }

func (e *OSTM) getTx() coreTx     { return e.txPool.get() }
func (e *OSTM) getSnapTx() snapTx { return e.snapPool.get() }

// putTx recycles a descriptor: observed boxes and locator references are
// dropped (past the final attempt's length, to whatever an earlier, larger
// aborted attempt of this call left behind — pool.go) so the pool cannot
// pin a finished transaction's object graph.
// The state pointer is always detached: a published state belongs to the
// attempt that published it forever, and lives inside the first locator that
// attempt installed, so keeping it would pin that retired locator and its
// boxes. reset re-establishes the descriptor's scratch state on next use.
func (e *OSTM) putTx(tx *ostmTx) {
	tx.reads = scrub(tx.reads, &tx.hiReads)
	tx.writeLocs = scrub(tx.writeLocs, &tx.hiWriteLocs)
	tx.readIdx.reset()
	tx.writeIdx.reset()
	tx.state = nil
	tx.stateShared = false
	e.txPool.put(tx)
}

// readEntry records one invisible read: the Var and the exact box observed.
type readEntry struct {
	v    *Var
	seen *box
}

// ostmTx is the pooled per-transaction descriptor. reset reuses the
// read/write-set storage across attempts; the scratch state is reused for
// as long as it stays private (invisible-read transactions that never
// write), which is what makes steady-state read-only transactions
// allocation free.
type ostmTx struct {
	txHead
	eng         *OSTM
	state       *txState
	stateShared bool    // state has been published (locator or reader set)
	scratch     txState // private reusable state for unpublished attempts

	reads     []readEntry
	readIdx   varIndex // *Var -> index into reads
	writeLocs []*wslot
	writeIdx  varIndex // *Var -> index into writeLocs

	hiReads, hiWriteLocs int // longest of each set over this call's earlier attempts (pool.go)

	// lastSerial is the engine commit serial as of the last validation
	// (commit-counter heuristic).
	lastSerial uint64
}

func (tx *ostmTx) reset() {
	if tx.eng.opts.VisibleReads {
		// Reader registration publishes the state on first read, and
		// reader-set entries may outlive the attempt; never recycle.
		tx.state = &txState{}
		tx.stateShared = true
	} else {
		if tx.stateShared || tx.state == nil {
			tx.state = &tx.scratch
			tx.stateShared = false
		}
		tx.state.status.Store(statusActive)
		tx.state.opens.Store(0)
	}
	tx.reads = truncate(tx.reads, &tx.hiReads)
	tx.readIdx.reset()
	tx.writeLocs = truncate(tx.writeLocs, &tx.hiWriteLocs)
	tx.writeIdx.reset()
	// Nothing read yet, so the current serial is a sound baseline.
	tx.lastSerial = tx.eng.commitSerial.Load()
}

// abortSelf moves the transaction to Aborted (it may already have been
// killed by an enemy, which is fine). Its writes become invisible: the
// owner of its locators is Aborted.
func (tx *ostmTx) abortSelf() {
	tx.state.status.CompareAndSwap(statusActive, statusAborted)
	tx.state.status.CompareAndSwap(statusValidating, statusAborted)
}

func (tx *ostmTx) recycle() { tx.eng.putTx(tx) }

func (tx *ostmTx) sizes() (reads, writes int) { return len(tx.reads), len(tx.writeLocs) }

func (tx *ostmTx) backoffSeed(int) uint64 { return tx.state.opens.Load() }

// abortEnemy tries to kill enemy; it returns true if enemy is (now) aborted
// and false if enemy already committed.
func (tx *ostmTx) abortEnemy(enemy *txState) bool {
	for {
		s := enemy.status.Load()
		switch s {
		case statusCommitted:
			return false
		case statusAborted:
			return true
		default:
			if enemy.status.CompareAndSwap(s, statusAborted) {
				tx.st.enemyAborts++
				return true
			}
		}
	}
}

// checkAlive aborts the current attempt promptly if an enemy killed us.
func (tx *ostmTx) checkAlive() {
	if tx.state.status.Load() == statusAborted {
		throwConflict("killed by enemy")
	}
}

// resolveRead returns the box visible to an active reader. A Validating
// owner is treated like an Active one (its new value is not yet committed);
// the sound gate against the cross-validation race is in validate(final).
func (tx *ostmTx) resolveRead(v *Var) *box {
	loc := v.own.loc.Load()
	if loc == nil {
		return v.cur.Load()
	}
	switch loc.owner.status.Load() {
	case statusCommitted:
		return loc.new
	default: // active, validating, aborted
		return loc.old
	}
}

// Read implements Tx.
func (tx *ostmTx) Read(v *Var) any {
	tx.st.reads++
	tx.checkAlive()
	if tx.eng.opts.VisibleReads {
		return tx.visibleRead(v)
	}
	if i, ok := tx.writeIdx.get(v); ok {
		return tx.writeLocs[i].new.val
	}
	b := tx.resolveRead(v)
	if i, ok := tx.readIdx.getOrPut(v, int32(len(tx.reads))); ok {
		if tx.reads[i].seen != b {
			throwConflict("reread changed")
		}
		return b.val
	}
	tx.reads = append(tx.reads, readEntry{v: v, seen: b})
	tx.state.opens.Add(1)
	if !tx.eng.opts.CommitTimeValidationOnly {
		tx.validate(false)
	}
	return b.val
}

// prepareLocator builds a locator for v whose pre-acquisition value is
// oldBox, relocating the still-private transaction state into the locator
// allocation on first publication (nothing outside this descriptor has
// seen the old state, so moving it is invisible; all of this transaction's
// locators will share the relocated state).
func (tx *ostmTx) prepareLocator(v *Var, oldBox *box) *locator {
	newLoc := &locator{wslot: wslot{v: v, old: oldBox}}
	if !tx.stateShared && !tx.eng.opts.VisibleReads {
		st := &newLoc.ownerState
		st.opens.Store(tx.state.opens.Load())
		st.status.Store(statusActive) // private ⇒ nobody could have aborted us
		tx.state = st
	}
	newLoc.owner = tx.state
	return newLoc
}

// finishAcquire books a freshly owned slot into the transaction: read-set
// consistency check, reader arbitration (visible mode) or incremental
// validation (invisible mode).
func (tx *ostmTx) finishAcquire(o *orec, s *wslot) *wslot {
	tx.stateShared = true
	tx.state.opens.Add(1)
	tx.writeIdx.put(s.v, int32(len(tx.writeLocs)))
	tx.writeLocs = append(tx.writeLocs, s)
	// If we previously read the Var, the value we took ownership of must
	// be the one we read.
	if i, ok := tx.readIdx.get(s.v); ok && tx.reads[i].seen != s.old {
		throwConflict("acquired var changed since read")
	}
	if tx.eng.opts.VisibleReads {
		// Symmetric eager conflict detection: every live registered
		// reader of the orec must lose or we must.
		tx.arbitrateReaders(o)
	} else if !tx.eng.opts.CommitTimeValidationOnly {
		tx.validate(false)
	}
	return s
}

// acquire opens v for writing: one owner per orec at a time, arbitrated
// with any live current owner through the contention manager. It retires
// any finished locator and installs its own over the empty slot — the
// install runs under the orec's writeback lock so the pre-acquisition
// snapshot of v.cur cannot be invalidated by a concurrent writeback
// between snapshot and install.
func (tx *ostmTx) acquire(v *Var) *wslot {
	if i, ok := tx.writeIdx.get(v); ok {
		return tx.writeLocs[i]
	}
	o := &v.own
	cm := tx.eng.opts.CM
	attempt := 0
	for {
		tx.checkAlive()
		cur := o.loc.Load()
		if cur != nil {
			switch cur.owner.status.Load() {
			case statusCommitted, statusAborted:
				if !retire(o, cur) {
					yield() // another retirer or installer holds the lock; let it finish
				}
				continue
			default: // live enemy owns the orec
				switch cm.OnConflict(tx.state, cur.owner, attempt) {
				case Wait:
					spinWait(cm.WaitDuration(tx.state, attempt))
					attempt++
				case AbortEnemy:
					tx.abortEnemy(cur.owner)
				case AbortSelf:
					throwConflict("write-write conflict")
				}
				continue
			}
		}
		// Empty slot: install under the writeback lock. Holding wb while
		// loc is nil guarantees no writeback is in flight, so the v.cur
		// snapshot taken here is v's current committed value —
		// without the lock, a full install/commit/writeback cycle could
		// slip between the snapshot and a bare CAS on the nil slot (ABA on
		// nil) and leave a stale `old` visible to readers.
		if !o.wb.CompareAndSwap(0, 1) {
			yield()
			continue
		}
		if o.loc.Load() != nil {
			o.wb.Store(0)
			continue // someone installed while we took the lock
		}
		newLoc := tx.prepareLocator(v, v.cur.Load())
		o.loc.Store(newLoc)
		o.wb.Store(0)
		return tx.finishAcquire(o, &newLoc.wslot)
	}
}

// retire clears a finished locator from o: a committed owner's value is
// written back to its Var, then the slot is cleared. The box stored in
// cur is the very `new` readers resolved through the locator, so a read
// entry that saw it still validates afterwards. The orec's writeback lock
// serializes retirement against installs and other retirers, so a delayed
// retirer can never clobber a newer committed value. It tries the lock
// once and never waits: false means somebody else holds it, and the
// locator stays for the next acquirer.
func retire(o *orec, target *locator) bool {
	if !o.wb.CompareAndSwap(0, 1) {
		return false
	}
	if o.loc.Load() == target {
		if target.owner.status.Load() == statusCommitted {
			target.v.cur.Store(target.new)
		}
		// Aborted owners never made their values visible: the Var's cur
		// still holds the value snapshotted at install time.
		o.loc.Store(nil)
	}
	o.wb.Store(0)
	return true
}

// retireOwn retires, right after the Committed flip, every locator this
// transaction installed, so each Var it wrote is one object again for
// later readers, validators and acquirers. It never waits: a locator whose
// writeback lock is taken stays installed, and the next acquirer retires
// it.
func (tx *ostmTx) retireOwn() {
	for _, s := range tx.writeLocs {
		o := &s.v.own
		if l := o.loc.Load(); l != nil && l.owner == tx.state {
			retire(o, l)
		}
	}
}

// Write implements Tx. The slot's box is private until commit, so a second
// write of the Var replaces the value in it.
func (tx *ostmTx) Write(v *Var, val any) {
	tx.st.writes++
	s := tx.acquire(v)
	if s.new == nil {
		s.new = &box{val: val}
	} else {
		s.new.val = val
	}
}

// set implements cellTx: Write(v, b.val), publishing b.
func (tx *ostmTx) set(v *Var, b *box) {
	tx.st.writes++
	tx.acquire(v).new = b
}

// Update implements Tx.
func (tx *ostmTx) Update(v *Var, f func(val any) any) {
	tx.st.writes++
	s := tx.updateSlot(v)
	s.new.val = f(s.new.val)
}

// mut implements cellTx: Update(v, keep), then Read(v), whose write-set hit
// is the acquired slot itself (in either read mode).
func (tx *ostmTx) mut(v *Var) any {
	tx.st.writes++
	s := tx.updateSlot(v)
	tx.st.reads++
	tx.checkAlive()
	return s.new.val
}

// updateSlot acquires v for an update. The first write of a freshly
// acquired Var, if it is an update, clones the value into the slot's box
// (object-level copy-on-write, ASTM style).
func (tx *ostmTx) updateSlot(v *Var) *wslot {
	s := tx.acquire(v)
	if s.new == nil {
		s.new = v.clone(s.old.val)
		tx.st.clones++
	}
	return s
}

// resolveValidate recomputes the box this transaction should be seeing for
// a read entry. In the final (commit-time) validation, encountering a
// Validating owner is a genuine race that must be arbitrated, not ignored —
// otherwise two transactions that each read what the other wrote could both
// commit (the classic invisible-read validation race).
func (tx *ostmTx) resolveValidate(v *Var, final bool) *box {
	for {
		loc := v.own.loc.Load()
		if loc == nil {
			return v.cur.Load()
		}
		if loc.owner == tx.state {
			// We own it; our read (if any) saw the pre-acquisition value.
			return loc.old
		}
		switch loc.owner.status.Load() {
		case statusCommitted:
			return loc.new
		case statusAborted:
			return loc.old
		case statusActive:
			return loc.old
		case statusValidating:
			if !final {
				return loc.old
			}
			// Arbitrate: either the enemy dies (its value stays old) or we
			// do. Waiting for the enemy to finish is also acceptable.
			switch tx.eng.opts.CM.OnConflict(tx.state, loc.owner, 0) {
			case AbortSelf:
				throwConflict("validating enemy")
			default:
				if tx.abortEnemy(loc.owner) {
					return loc.old
				}
				// Enemy committed while we argued.
				return loc.new
			}
		}
	}
}

// validate re-checks every read entry; any change dooms this attempt.
// Its cost is O(len(reads)); called per open it yields the O(k²) total the
// paper measures. With the commit-counter heuristic, incremental passes are
// skipped when no write transaction committed since the previous pass
// (only a commit can invalidate a read entry); the final pass always runs —
// it also arbitrates the Validating-vs-Validating race, which the counter
// cannot witness.
func (tx *ostmTx) validate(final bool) {
	tx.checkAlive()
	if !final && tx.eng.opts.CommitCounterHeuristic {
		serial := tx.eng.commitSerial.Load()
		if serial == tx.lastSerial {
			return
		}
		tx.lastSerial = serial
	}
	n := len(tx.reads)
	tx.at(siteValidate, uint64(n), 0)
	tx.st.validations += uint64(n)
	for i := 0; i < n; i++ {
		ent := &tx.reads[i]
		// A Var whose orec holds no locator is one object:
		// resolveValidate's first branch, without the call.
		if ent.v.own.loc.Load() == nil && ent.v.cur.Load() == ent.seen {
			continue
		}
		if tx.resolveValidate(ent.v, final) != ent.seen {
			throwConflict("read invalidated")
		}
	}
}

// commit drives Active → Validating → Committed. It returns false when the
// transaction lost a race (killed, or final validation failed via panic —
// which unwinds to runAttempt, not here).
func (tx *ostmTx) commit() bool {
	// Before any status transition, an attempt a hook aborts is an
	// ordinary conflict: runAttempt's recover aborts the state, which
	// disowns its acquired locators.
	if len(tx.writeLocs) > 0 {
		tx.at(sitePreCommit, 0, 0)
	}
	if tx.eng.opts.VisibleReads {
		// Visible mode needs no validation: a writer that invalidated any
		// of our reads had to abort us first, and read-write conflicts are
		// arbitrated eagerly on both sides, which also rules out the
		// cross-validation race. The commit still passes through
		// Validating so the serial bump precedes the Committed flip (see
		// commitSerial); every observer treats Validating exactly like
		// Active, so the extra hop changes no arbitration.
		if !tx.state.status.CompareAndSwap(statusActive, statusValidating) {
			return false
		}
		if len(tx.writeLocs) > 0 {
			tx.at(siteLocked, uint64(len(tx.writeLocs)), 0)
			tx.at(siteLockHold, 0, 0)
			tx.at(siteClockTick, 0, 0)
			tx.eng.commitSerial.Add(1)
		}
		return tx.publish()
	}
	if len(tx.writeLocs) == 0 {
		// Invisible read-only transaction: nobody can see or kill it; it
		// commits iff its final validation passes.
		tx.validate(true)
		return true
	}
	if !tx.state.status.CompareAndSwap(statusActive, statusValidating) {
		return false // enemy killed us
	}
	// The Validating window is OSTM's lock hold: acquired locators keep
	// enemies arbitrating against us while we sit here, and snapshot
	// readers spin on the Validating status.
	tx.at(siteLocked, uint64(len(tx.writeLocs)), 0)
	tx.at(siteLockHold, 0, 0)
	tx.validate(true)
	tx.at(siteClockTick, 0, 0)
	// The serial bump precedes the Committed flip (see commitSerial): an
	// observer that resolves our new values is then guaranteed to also
	// observe the bump.
	tx.eng.commitSerial.Add(1)
	return tx.publish()
}

// publish is the commit point, Validating → Committed, followed by the
// retirement of this transaction's locators. The flip precedes the
// writeback, so a reader that finds a new value in cur also finds the
// serial bump that preceded the flip.
func (tx *ostmTx) publish() bool {
	if !tx.state.status.CompareAndSwap(statusValidating, statusCommitted) {
		return false
	}
	tx.retireOwn()
	return true
}

var (
	_ Engine = (*OSTM)(nil)
	_ coreTx = (*ostmTx)(nil)
	_ cellTx = (*ostmTx)(nil)
	_ TxInfo = (*txState)(nil)
)
