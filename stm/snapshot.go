package stm

import "errors"

// Read-only snapshot mode.
//
// STMBench7's §5 headline pathology is that long read-only traversals (T1,
// T6, Q6) pay per-read bookkeeping — read-set logging plus whatever
// validation the engine's protocol demands — for isolation they do not
// need: a transaction that writes nothing cannot participate in write skew,
// so all it requires is that every value it reads belongs to ONE committed
// state. Values in Vars are already immutable boxes, so such a state is
// free to read once the engine can tell the reader which boxes belong to
// it. RunReadOnly is that mode: no read-set logging, no commit-time
// validation, zero writes to shared metadata.
//
// Each engine proves snapshot membership with the cheapest mechanism its
// design offers:
//
//   - TL2 samples the global version clock (rv) once and checks, per read,
//     that the orec is unlocked with version <= rv — the read-only mode of
//     the original TL2 paper. A version above rv means the snapshot is
//     stale; with no read set there is nothing to extend, so the attempt
//     restarts at a fresh rv (a "rv refresh", counted in
//     Stats.SnapshotRestarts).
//
//   - NOrec samples the global sequence lock at an even value and checks,
//     per read, that it has not moved — a seqlock read path. Any commit
//     anywhere moves the lock and restarts the attempt (an "epoch retry");
//     value-based revalidation needs the read set the mode exists to drop.
//
//   - OSTM resolves each Var's locator to its committed value (old for
//     Active/Aborted owners, new for Committed ones) WITHOUT joining
//     reader registries or logging the read, and checks per read that the
//     engine's commit serial has not moved since the attempt began. A
//     Validating owner is mid-commit — its committed value is ambiguous
//     because the serial is bumped just before the Committed flip — so the
//     reader spins briefly and then restarts.
//
// Opacity is preserved: every read re-proves snapshot membership before
// returning, so even a doomed snapshot attempt never yields a value from a
// mixed state — it restarts instead. The per-read check is one or two
// uncontended atomic loads, which is why the mode wins on long traversals:
// the cost that scales with the read set (logging, spill-index inserts,
// validation passes) is gone entirely.
//
// Restart semantics: snapshot attempts restart whenever the snapshot can no
// longer be proven current (counted in Stats.SnapshotRestarts, NOT in
// Stats.ConflictAborts — the normal path's counter). A long traversal
// racing a steady commit stream could restart indefinitely, so after
// snapRestartBudget restarts RunReadOnly falls back to the engine's
// validating Atomic path, which tolerates concurrent commits (NOrec
// extends, OSTM validates incrementally, TL2 retries with the same odds as
// its normal read-only path). Snapshot mode therefore never costs
// liveness; it only ever removes per-read work. The fallback is an ordinary
// transaction in every counter too.

// SnapshotReader is the optional engine capability behind RunReadOnly: a
// read-only execution mode that serves fn from a consistent committed
// snapshot with no read-set logging and no commit-time validation.
//
// fn must not call Tx.Write or Tx.Update — the snapshot Tx has no write
// path and panics with errSnapshotWrite (a programming error, propagated
// to the caller per the engine contract's panic transparency). fn may be
// re-executed on snapshot restarts exactly like an Atomic fn is on
// conflicts, and returning a non-nil error aborts with that error.
type SnapshotReader interface {
	RunReadOnly(fn func(tx Tx) error) error
}

// RunReadOnly runs fn as a read-only snapshot transaction when eng
// supports the capability, and falls back to a plain Atomic transaction
// otherwise. It is the dispatch helper callers outside the package use so
// engine support stays optional.
func RunReadOnly(eng Engine, fn func(tx Tx) error) error {
	if sr, ok := eng.(SnapshotReader); ok {
		return sr.RunReadOnly(fn)
	}
	return eng.Atomic(fn)
}

// errSnapshotWrite is the panic value raised by a write attempted inside a
// read-only snapshot transaction. It is not a conflict signal, so it
// propagates out of RunReadOnly to the caller.
var errSnapshotWrite = errors.New("stm: Write/Update inside a read-only snapshot transaction (RunReadOnly)")

// snapRestartBudget bounds snapshot-mode restarts before RunReadOnly falls
// back to the engine's validating Atomic path (see the liveness note in
// the file comment). Small on purpose: each restart re-executes fn from
// scratch, so a snapshot that cannot stabilize quickly should stop
// discarding work and pay for validation instead.
const snapRestartBudget = 8

// snapValidatingSpins bounds how long an OSTM snapshot read waits for a
// mid-commit (Validating) owner to resolve before restarting the attempt.
const snapValidatingSpins = 64

// runSnapshotAttempt executes fn once on a snapshot Tx: (true, nil) on
// success, (false, err) on a user abort, (false, nil) on a snapshot
// restart (the engine-thrown conflict). Mirrors runAttempt (core.go).
func runSnapshotAttempt(tx Tx, fn func(tx Tx) error) (committed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			rethrowIfNotConflict(r)
			committed, err = false, nil
		}
	}()
	if err := fn(tx); err != nil {
		return false, err
	}
	return true, nil
}

// snapTx is the engine-side face of a pooled snapshot descriptor. The
// shared retry loop drives it through methods rather than closures —
// closures capturing the descriptor would put heap allocations back on
// the 0-alloc path.
type snapTx interface {
	Tx
	head() *txHead
	// sample takes a fresh snapshot for the next attempt (clock /
	// sequence / serial, per engine).
	sample()
	// recycle returns the descriptor to its engine's pool.
	recycle()
}

// RunReadOnly implements SnapshotReader for TL2, NOrec and OSTM: under
// nosnap (EngineOptions.DisableROSnapshot) it is Atomic, otherwise the
// snapshot loop over the engine's snapshot descriptor.
func (c *engineCore) RunReadOnly(fn func(tx Tx) error) error {
	if c.noSnap {
		return c.Atomic(fn)
	}
	return c.runSnapshotLoop(c.descs.getSnapTx(), fn)
}

// runSnapshotLoop is the shared RunReadOnly protocol: sample, attempt,
// account, restart with backoff, bounded by the fallback budget. The
// engine's MaxRetries deliberately does NOT apply to snapshot restarts:
// a restart is a cheap snapshot refresh, not a conflict retry, and an
// engine whose validating path would succeed (NOrec extends across the
// very commits that restart a snapshot) must not return ErrAborted just
// because the snapshot phase was configured with a small retry cap — the
// fallback Atomic enforces MaxRetries itself, so a RunReadOnly call
// executes at most snapRestartBudget+1 snapshot attempts before the
// configured budget starts counting. TxDeadline, by contrast, IS
// inherited: the deadline starts at RunReadOnly entry and the fallback
// receives the same absolute bound, so snapshot restarts cannot silently
// reset the call's wall-clock budget (an expired inherited deadline
// still grants the fallback one attempt — see budgetCause). A deadline
// that expires during the snapshot phase skips the remaining restart
// budget and falls back at once. Engine-specific behavior lives entirely
// in the descriptor's Read and sample.
func (c *engineCore) runSnapshotLoop(tx snapTx, fn func(tx Tx) error) error {
	h := tx.head()
	deadline := c.txDeadline()
	for attempt := 0; ; attempt++ {
		if attempt > snapRestartBudget ||
			(deadline != 0 && attempt > 0 && nanotime() >= deadline) {
			tx.recycle()
			return c.atomicFrom(fn, deadline)
		}
		tx.sample()
		committed, err := runSnapshotAttempt(tx, fn)
		if h.tr.rec != nil && committed {
			h.tr.note(TraceCommit, h.st.reads, 0)
		}
		c.stats.flushTx(&h.st)
		if committed {
			c.stats.commits.Add(1)
			c.stats.snapshotTxs.Add(1)
			tx.recycle()
			return nil
		}
		if err != nil {
			c.stats.userAborts.Add(1)
			tx.recycle()
			return err
		}
		if h.tr.rec != nil {
			h.tr.note(TraceSnapRestart, uint64(attempt), 0)
		}
		c.stats.snapshotRestarts.Add(1)
		spinWait(backoffDur(attempt, uint64(attempt)<<32))
	}
}

// --- TL2 ------------------------------------------------------------------

// tl2SnapTx is TL2's pooled snapshot descriptor: just the rv sample and the
// per-attempt stat accumulator — no read set, no indexes, no commit
// scratch.
type tl2SnapTx struct {
	txHead
	eng *TL2
	rv  uint64
}

// Read performs the validation-free TL2 snapshot read: sampled meta, value,
// meta again; consistent iff the orec was stable, unlocked, and not newer
// than rv. Unlike the Atomic path nothing is logged: a newer version
// restarts the snapshot, and the refreshed snapshot simply includes the
// new commit.
func (tx *tl2SnapTx) Read(v *Var) any {
	tx.st.reads++
	o := &v.own
	spins := 0
	for {
		m1 := o.meta.Load()
		if m1&1 == 1 {
			spins++
			if spins > tl2ReadLockSpins {
				throwConflict("snapshot read of locked var")
			}
			spinHint()
			continue
		}
		b := v.cur.Load()
		if o.meta.Load() != m1 {
			continue
		}
		if m1 > tx.rv {
			// Newer than the snapshot: with no read set there is nothing
			// to extend, so the whole attempt restarts at a fresh rv.
			throwConflict("snapshot version newer than rv")
		}
		return b.val
	}
}

// Write implements Tx by rejecting the call: snapshot transactions are
// read-only by contract.
func (tx *tl2SnapTx) Write(*Var, any) { panic(errSnapshotWrite) }

// Update implements Tx by rejecting the call (see Write).
func (tx *tl2SnapTx) Update(*Var, func(any) any) { panic(errSnapshotWrite) }

func (tx *tl2SnapTx) sample()  { tx.rv = tx.eng.clock.Load() }
func (tx *tl2SnapTx) recycle() { tx.eng.snapPool.put(tx) }

// --- NOrec ----------------------------------------------------------------

// norecSnapTx is NOrec's pooled snapshot descriptor: the sampled even
// sequence value and the stat accumulator.
type norecSnapTx struct {
	txHead
	eng  *NOrec
	snap uint64
}

// Read is the seqlock read: load the value, then check the sequence lock
// has not moved since the attempt's sample. An unchanged even sequence
// proves no writer published anything since the snapshot, so the box is
// part of the snapshot's committed state; a moved sequence restarts the
// attempt (with no read set there is nothing to revalidate by value).
func (tx *norecSnapTx) Read(v *Var) any {
	tx.st.reads++
	b := v.cur.Load()
	if tx.eng.seq.Load() != tx.snap {
		throwConflict("snapshot epoch moved")
	}
	return b.val
}

// Write implements Tx by rejecting the call: snapshot transactions are
// read-only by contract.
func (tx *norecSnapTx) Write(*Var, any) { panic(errSnapshotWrite) }

// Update implements Tx by rejecting the call (see Write).
func (tx *norecSnapTx) Update(*Var, func(any) any) { panic(errSnapshotWrite) }

func (tx *norecSnapTx) sample()  { tx.snap = tx.eng.sampleSeq() }
func (tx *norecSnapTx) recycle() { tx.eng.snapPool.put(tx) }

// --- OSTM -----------------------------------------------------------------

// ostmSnapTx is OSTM's pooled snapshot descriptor: the commit-serial sample
// and the stat accumulator. No txState — a snapshot reader is invisible by
// construction (it joins no reader registry and installs nothing), so no
// contention manager ever sees it.
type ostmSnapTx struct {
	txHead
	eng      *OSTM
	serialAt uint64 // the commit serial at the attempt's sample
}

// resolveSnapshot returns the committed value of v, or ok == false when
// v's owner is mid-commit (Validating) and the committed value is
// ambiguous: the commit serial is bumped during the Validating window
// (just before the Committed flip), so a Validating owner's old value can
// no longer be proven to belong to the sampled snapshot. Active owners are
// safe — an owner observed Active cannot have bumped the serial yet, so
// its old value is the committed state for every serial up to now — and
// Aborted owners never published their values at all.
func resolveSnapshot(v *Var) (*box, bool) {
	loc := v.own.loc.Load()
	if loc == nil {
		return v.cur.Load(), true
	}
	switch loc.owner.status.Load() {
	case statusCommitted:
		return loc.new, true
	case statusValidating:
		return nil, false
	default: // active, aborted
		return loc.old, true
	}
}

// Read resolves the committed snapshot value without registering anywhere,
// then checks the commit serial has not moved since the attempt's sample —
// the proof that the resolved value still belongs to the sampled snapshot
// (every write commit bumps the serial before its values become visible).
func (tx *ostmSnapTx) Read(v *Var) any {
	tx.st.reads++
	spins := 0
	for {
		b, ok := resolveSnapshot(v)
		if !ok {
			spins++
			if spins > snapValidatingSpins {
				throwConflict("snapshot read of committing var")
			}
			spinHint()
			continue
		}
		if tx.eng.commitSerial.Load() != tx.serialAt {
			throwConflict("snapshot serial moved")
		}
		return b.val
	}
}

// Write implements Tx by rejecting the call: snapshot transactions are
// read-only by contract.
func (tx *ostmSnapTx) Write(*Var, any) { panic(errSnapshotWrite) }

// Update implements Tx by rejecting the call (see Write).
func (tx *ostmSnapTx) Update(*Var, func(any) any) { panic(errSnapshotWrite) }

func (tx *ostmSnapTx) sample()  { tx.serialAt = tx.eng.commitSerial.Load() }
func (tx *ostmSnapTx) recycle() { tx.eng.snapPool.put(tx) }

// --- Direct ---------------------------------------------------------------

// RunReadOnly implements SnapshotReader trivially: the direct engine has no
// conflict detection, so the "snapshot" is whatever the unsynchronized
// reads observe — exactly Atomic's semantics, counted as a snapshot
// transaction. (Direct enforces nothing, including read-onlyness; callers
// provide mutual exclusion, as everywhere with this engine.)
func (d *Direct) RunReadOnly(fn func(tx Tx) error) error {
	tx := d.txPool.get()
	err := fn(tx)
	d.stats.flushTx(&tx.st)
	if err != nil {
		d.stats.userAborts.Add(1)
	} else {
		d.stats.commits.Add(1)
		d.stats.snapshotTxs.Add(1)
	}
	d.txPool.put(tx)
	return err
}

var (
	_ SnapshotReader = (*TL2)(nil)
	_ SnapshotReader = (*NOrec)(nil)
	_ SnapshotReader = (*OSTM)(nil)
	_ SnapshotReader = (*Direct)(nil)
	_ snapTx         = (*tl2SnapTx)(nil)
	_ snapTx         = (*norecSnapTx)(nil)
	_ snapTx         = (*ostmSnapTx)(nil)
)
