package stm

import (
	"reflect"
	"sync/atomic"
)

// NOrecConfig tunes the NOrec engine.
type NOrecConfig struct {
	// MaxRetries bounds re-executions; 0 means retry forever. When the
	// budget is exhausted Atomic returns ErrAborted.
	MaxRetries int
	// EngineOptions carries the spec-addressable knobs. NOrec honours
	// Versions (each retained box is stamped with its commit's
	// post-release sequence value, and the seqlock epoch check is dropped
	// entirely under Versions > 1), TxDeadline, SerialFallback, Faults,
	// Trace and DisableROSnapshot, and ignores the rest.
	EngineOptions
}

// NOrec implements the "no ownership records" STM of Dalessandro, Spear
// and Scott (PPoPP 2010): the only global metadata is a single sequence
// lock. Reads are invisible and buffered with the value they observed;
// writes are buffered lazily; a committing writer acquires the sequence
// lock (making it odd), writes back, and releases it (advancing it by
// two). A transaction that observes the sequence lock move re-validates
// its read set by value and, on success, extends its snapshot to the
// new time instead of aborting.
//
// The design occupies a distinct point in the space STMBench7 compares:
//
//   - Per-access cost is the lowest of the engines here — a read is one
//     atomic load of the sequence lock plus the value load, with no
//     per-Var version bookkeeping (contrast TL2's versioned lock word)
//     and no locator chains (contrast OSTM).
//   - Validation is O(read set) per *global* commit rather than TL2's
//     O(1) per read, so long traversals run concurrently with frequent
//     writers pay for every commit anywhere in the heap — even to Vars
//     the traversal never touches. STMBench7's long traversals against
//     short-operation background load exhibit exactly this trade-off.
//   - Write commits serialize behind the single lock: disjoint-access
//     writers do not scale, and the benchmark's write-dominated
//     workloads make the cost visible.
//
// NOrec sits outside the orec metadata axis by definition — "no ownership
// records" is the design — so the Granularity/OrecStripes
// engine options do not apply to it: its metadata footprint is already a
// single word, which is exactly the extreme point the striped orec table
// trades toward. The EngineOptions.Versions axis DOES apply (the sequence
// lock's even values are exactly the snapshot timestamps a version chain
// resolves against), so NOrec registers as a tunable engine and consumes
// that one knob.
type NOrec struct {
	space    VarSpace
	cfg      NOrecConfig
	stats    statCounters
	txPool   txPool[norecTx]
	snapPool txPool[norecSnapTx] // read-only snapshot descriptors (RunReadOnly)
	// seq is the global sequence lock: odd while a writer is in its
	// write-back phase, even otherwise. An even value doubles as the
	// snapshot time of every committed state.
	seq atomic.Uint64
	// gate is the serial-fallback token (nil unless SerialFallback).
	gate *serialGate
	// faults is the engine's private fault-plan snapshot (nil = none).
	faults *FaultPlan
}

// NewNOrec returns a NOrec engine with default configuration.
func NewNOrec() *NOrec { return NewNOrecWith(NOrecConfig{}) }

func init() {
	RegisterTunable("norec", func(o EngineOptions) Engine { return NewNOrecWith(NOrecConfig{EngineOptions: o}) })
}

// NewNOrecWith returns a NOrec engine with explicit configuration.
func NewNOrecWith(cfg NOrecConfig) *NOrec {
	cfg.Versions = normalizeVersions(cfg.Versions)
	e := &NOrec{cfg: cfg}
	if cfg.SerialFallback {
		e.gate = &serialGate{}
	}
	e.faults = cfg.Faults.fresh()
	e.txPool.init(func() *norecTx { return &norecTx{eng: e, tr: cfg.Trace.tap()} })
	e.snapPool.init(func() *norecSnapTx { return &norecSnapTx{eng: e, tr: cfg.Trace.tap()} })
	return e
}

// Name implements Engine.
func (e *NOrec) Name() string { return "norec" }

// VarSpace implements Engine.
func (e *NOrec) VarSpace() *VarSpace { return &e.space }

// Stats implements Engine.
func (e *NOrec) Stats() Stats { return e.stats.snapshot() }

// Atomic implements Engine.
func (e *NOrec) Atomic(fn func(tx Tx) error) error {
	return e.atomicFrom(fn, deadlineFor(e.cfg.TxDeadline))
}

// txDeadline starts a fresh absolute deadline per the engine config; the
// snapshot loop (snapshot.go) calls it at RunReadOnly entry so restarts
// and the validating fallback share one budget.
func (e *NOrec) txDeadline() int64 { return deadlineFor(e.cfg.TxDeadline) }

// atomicFrom is the retry loop behind Atomic. deadline is an absolute
// nanotime bound (0 = none): Atomic derives it from cfg.TxDeadline, and
// the snapshot fallback passes the deadline its RunReadOnly call started
// with, so time burned on snapshot restarts stays on the same budget.
func (e *NOrec) atomicFrom(fn func(tx Tx) error, deadline int64) error {
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

// runSerial escalates tx to the irrevocable serial mode; see the TL2
// counterpart for the protocol. With the exclusive token held no other
// Atomic attempt can move the sequence lock, so the commit CAS succeeds
// on the first iteration.
func (e *NOrec) runSerial(tx *norecTx, fn func(tx Tx) error) error {
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

// putTx recycles a descriptor, dropping buffered user values and observed
// snapshots first so the pool cannot pin them. The scrub reaches past the
// final attempt's length to whatever an earlier, larger aborted attempt of
// this call left behind (pool.go).
func (e *NOrec) putTx(tx *norecTx) {
	tx.writes = scrub(tx.writes, &tx.hiWrites)
	tx.reads = scrub(tx.reads, &tx.hiReads)
	tx.writeIdx.reset()
	tx.readIdx.reset()
	e.txPool.put(tx)
}

func (e *NOrec) runAttempt(tx *norecTx, fn func(tx Tx) error) (committed bool, err error) {
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

// sampleSeq spins until the sequence lock is even (no writer in its
// write-back phase) and returns the observed snapshot time.
func (e *NOrec) sampleSeq() uint64 {
	for {
		s := e.seq.Load()
		if s&1 == 0 {
			return s
		}
		spinHint()
	}
}

// norecRead is one read-set entry: the Var and the snapshot it yielded.
type norecRead struct {
	v    *Var
	seen *box
}

// norecWrite is one buffered write.
type norecWrite struct {
	v   *Var
	val any
}

// norecTx is the pooled per-transaction descriptor; reset reuses the
// read/write-set storage across attempts and pooled reuses.
type norecTx struct {
	eng      *NOrec
	snapshot uint64  // even sequence value all reads so far are consistent with
	st       txStats // per-attempt counters, flushed by Atomic

	reads   []norecRead
	readIdx varIndex // *Var -> index into reads

	writes   []norecWrite
	writeIdx varIndex // *Var -> index into writes

	hiReads, hiWrites int // longest reads/writes over this call's earlier attempts (pool.go)

	tr traceTap // flight-recorder handle (tr.rec nil = tracing off)

	serial   bool // attempt runs under the exclusive serial token (suppresses fault probes)
	injected bool // last abort of this call was a FaultPlan forced abort
}

func (tx *norecTx) reset() {
	tx.snapshot = tx.eng.sampleSeq()
	tx.reads = truncate(tx.reads, &tx.hiReads)
	tx.readIdx.reset()
	tx.writes = truncate(tx.writes, &tx.hiWrites)
	tx.writeIdx.reset()
	tx.injected = false
}

// readVar performs NOrec's post-validated read: load the value, and if
// the sequence lock moved since the snapshot, re-validate the read set
// and slide the snapshot forward before trusting it.
//
// Each Var appears in the read set once — long traversals re-read hot
// index Vars constantly, and validation cost is per entry per global
// commit. A re-read refreshes the recorded snapshot: validation between
// the two reads guarantees the old and new boxes are equal-valued, and
// the newer box keeps the identity fast path in stillValid alive.
func (tx *norecTx) readVar(v *Var) any {
	b := v.cur.Load()
	for tx.eng.seq.Load() != tx.snapshot {
		tx.snapshot = tx.validate()
		b = v.cur.Load()
	}
	if i, ok := tx.readIdx.getOrPut(v, int32(len(tx.reads))); ok {
		tx.reads[i].seen = b
	} else {
		tx.reads = append(tx.reads, norecRead{v: v, seen: b})
	}
	return b.val
}

// validate re-checks every read against the current committed state
// during a stable (even) sequence window and returns that window's time;
// any changed value dooms the attempt. This is both NOrec's conflict
// detection and its snapshot extension — there is no per-Var version to
// compare, so "unchanged value" is the consistency criterion itself.
func (tx *norecTx) validate() uint64 {
	for {
		t := tx.eng.sampleSeq()
		if tx.tr.rec != nil {
			tx.tr.note(TraceValidate, uint64(len(tx.reads)), 0)
		}
		tx.st.validations += uint64(len(tx.reads))
		for _, r := range tx.reads {
			if !tx.stillValid(r) {
				throwConflict("norec: read value changed")
			}
		}
		if tx.eng.seq.Load() == t {
			return t
		}
		// A writer slipped in mid-validation; the pass proves nothing.
		// Take a fresh window and try again.
	}
}

// stillValid reports whether one read-set entry matches the committed
// state. The snapshot-identity fast path needs no value comparison; a
// replaced box is still valid under value-based validation when it
// holds an equal value of a comparable type.
func (tx *norecTx) stillValid(r norecRead) bool {
	cur := r.v.cur.Load()
	if cur == r.seen {
		return true
	}
	return boxValuesEqual(r.v, cur, r.seen)
}

// boxValuesEqual compares two snapshots of v by value without panicking on
// non-comparable values (slices, maps — including ones buried inside
// interface fields of otherwise comparable types): those conservatively
// compare unequal, falling back to reference semantics. Comparability
// must be checked on the reflect.Value, not the type: a type like
// [2]any is statically comparable but == panics when an element's
// dynamic contents are not.
//
// A Var with a clone function holds copy-on-write snapshots — every Cell
// holds a *T and no write ever republishes the pointer it read — so the
// address carries no meaning and the value is the pointee. A pointer in a
// Var without one is the user's and compares by identity.
func boxValuesEqual(v *Var, a, b *box) bool {
	av, bv := a.val, b.val
	if av == nil || bv == nil {
		return av == nil && bv == nil
	}
	ra, rb := reflect.ValueOf(av), reflect.ValueOf(bv)
	if ra.Type() != rb.Type() {
		return false
	}
	if v.clone != nil && ra.Kind() == reflect.Pointer && !ra.IsNil() && !rb.IsNil() {
		ra, rb = ra.Elem(), rb.Elem()
	}
	return ra.Comparable() && ra.Equal(rb)
}

// Read implements Tx.
func (tx *norecTx) Read(v *Var) any {
	tx.st.reads++
	if i, ok := tx.writeIdx.get(v); ok {
		return tx.writes[i].val
	}
	return tx.readVar(v)
}

// Write implements Tx (lazy: buffered until commit).
func (tx *norecTx) Write(v *Var, val any) {
	tx.st.writes++
	if i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes))); ok {
		tx.writes[i].val = val
		return
	}
	tx.writes = append(tx.writes, norecWrite{v: v, val: val})
}

// Update implements Tx. A first Update reads the current value (which
// joins the read set, guarding against lost updates), clones it if the
// Var has a clone function, applies f, and buffers the result.
func (tx *norecTx) Update(v *Var, f func(val any) any) {
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
	tx.writes = append(tx.writes, norecWrite{v: v, val: f(cur)})
}

// commit implements NOrec's commit protocol: acquire the sequence lock
// at the snapshot time (re-validating and extending on every failure),
// write back, and release by advancing the lock.
func (tx *norecTx) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only: every read was validated against some committed
		// state and the snapshot only ever slid forward, so the last
		// validation point is the serialization point.
		return true
	}
	// Fault probes: the forced abort and pre-commit stall land before the
	// seqlock acquisition, so an unwound attempt never holds the lock.
	// Suppressed for serial attempts (see serial.go).
	if f := tx.eng.faults; f != nil && !tx.serial {
		if f.fire(FaultAbort, &tx.eng.stats) {
			throwInjectedFault()
		}
		f.stallAt(FaultPreCommit, &tx.eng.stats)
	}
	for !tx.eng.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		// Either a writer holds the lock or time moved on: validate
		// against the newest state (throws on conflict) and retry the
		// acquisition at the extended snapshot.
		tx.snapshot = tx.validate()
	}
	// Sequence lock held (odd): the flight recorder's lock-acquire mark.
	if tx.tr.rec != nil {
		tx.tr.note(TraceLock, uint64(len(tx.writes)), 0)
	}
	// Lock-holder pause: the sequence lock is odd, so every reader and
	// committer engine-wide is stalled behind this window.
	if f := tx.eng.faults; f != nil && !tx.serial {
		f.stallAt(FaultLockHold, &tx.eng.stats)
	}
	// One fresh box per written Var: published snapshots may be held by
	// concurrent readers forever and cannot come from the pool. Each box
	// is stamped with this commit's post-release sequence value; under
	// Versions > 1 the superseded box is linked behind it (same single
	// allocation) so snapshot readers at older epochs can resolve it.
	keep := tx.eng.cfg.Versions
	for i := range tx.writes {
		w := &tx.writes[i]
		publishVersion(w.v, &box{val: w.val, wv: tx.snapshot + 2}, keep, &tx.st)
	}
	// Clock-stamp delay: NOrec's commit stamp is the seqlock release
	// itself, so the delay sits just before the releasing store.
	if f := tx.eng.faults; f != nil && !tx.serial {
		f.stallAt(FaultClockTick, &tx.eng.stats)
	}
	tx.eng.seq.Store(tx.snapshot + 2)
	return true
}

var (
	_ Engine = (*NOrec)(nil)
	_ Tx     = (*norecTx)(nil)
)
