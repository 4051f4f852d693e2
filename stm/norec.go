package stm

import (
	"reflect"
	"sync/atomic"
)

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
// NOrec sits outside the orec metadata layer by definition — "no ownership
// records" is the design — so its metadata footprint is a single word and
// it leaves every Var's inline orec untouched.
type NOrec struct {
	engineCore
	txPool   txPool[norecTx]
	snapPool txPool[norecSnapTx] // read-only snapshot descriptors (RunReadOnly)
	// seq is the global sequence lock: odd while a writer is in its
	// write-back phase, even otherwise. An even value doubles as the
	// snapshot time of every committed state.
	seq atomic.Uint64
}

// NewNOrec returns a NOrec engine configured with o. NOrec honours
// MaxRetries, TxDeadline, SerialFallback, Faults, Trace and
// DisableROSnapshot, and ignores the rest.
func NewNOrec(o EngineOptions) *NOrec {
	e := &NOrec{}
	e.setup(e, o)
	e.txPool.init(func() *norecTx { return &norecTx{eng: e, txHead: txHead{hook: e.hook()}} })
	e.snapPool.init(func() *norecSnapTx { return &norecSnapTx{eng: e, txHead: txHead{hook: e.hook()}} })
	return e
}

// Name implements Engine.
func (e *NOrec) Name() string { return "norec" }

func (e *NOrec) getTx() coreTx     { return e.txPool.get() }
func (e *NOrec) getSnapTx() snapTx { return e.snapPool.get() }

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

// norecWrite is one buffered write, with the private box val was made in
// (nil for a plain Write), as in tl2Write.
type norecWrite struct {
	v   *Var
	val any
	b   *box
}

// norecTx is the pooled per-transaction descriptor; reset reuses the
// read/write-set storage across attempts and pooled reuses.
type norecTx struct {
	txHead
	eng      *NOrec
	snapshot uint64 // even sequence value all reads so far are consistent with

	reads   []norecRead
	readIdx varIndex // *Var -> index into reads

	writes   []norecWrite
	writeIdx varIndex // *Var -> index into writes

	hiReads, hiWrites int // longest reads/writes over this call's earlier attempts (pool.go)
}

func (tx *norecTx) reset() {
	tx.snapshot = tx.eng.sampleSeq()
	tx.reads = truncate(tx.reads, &tx.hiReads)
	tx.readIdx.reset()
	tx.writes = truncate(tx.writes, &tx.hiWrites)
	tx.writeIdx.reset()
}

// abortSelf implements coreTx: buffered writes are simply dropped.
func (tx *norecTx) abortSelf() {}

// recycle implements coreTx, dropping buffered user values and observed
// snapshots first so the pool cannot pin them. The scrub reaches past the
// final attempt's length to whatever an earlier, larger aborted attempt of
// this call left behind (pool.go).
func (tx *norecTx) recycle() {
	tx.writes = scrub(tx.writes, &tx.hiWrites)
	tx.reads = scrub(tx.reads, &tx.hiReads)
	tx.writeIdx.reset()
	tx.readIdx.reset()
	tx.eng.txPool.put(tx)
}

func (tx *norecTx) sizes() (reads, writes int) { return len(tx.reads), len(tx.writes) }

func (tx *norecTx) backoffSeed(attempt int) uint64 {
	return uint64(len(tx.reads)) + uint64(attempt)<<32
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
		tx.at(siteValidate, uint64(len(tx.reads)), 0)
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
	return boxValuesEqual(cur, r.seen)
}

// boxValuesEqual compares two snapshots of a Var by value without panicking
// on non-comparable values (slices, maps — including ones buried inside
// interface fields of otherwise comparable types): those conservatively
// compare unequal, falling back to reference semantics. Comparability
// must be checked on the reflect.Value, not the type: a type like
// [2]any is statically comparable but == panics when an element's
// dynamic contents are not.
//
// Every Var is a cell's, and a cell holds copy-on-write snapshots — a *T,
// and no write ever republishes the pointer it read — so the address
// carries no meaning and the value is the pointee.
func boxValuesEqual(a, b *box) bool {
	av, bv := a.val, b.val
	if av == nil || bv == nil {
		return av == nil && bv == nil
	}
	ra, rb := reflect.ValueOf(av), reflect.ValueOf(bv)
	if ra.Type() != rb.Type() {
		return false
	}
	if ra.Kind() == reflect.Pointer && !ra.IsNil() && !rb.IsNil() {
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

// set implements cellTx: Write(v, b.val), publishing b.
func (tx *norecTx) set(v *Var, b *box) {
	tx.st.writes++
	if i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes))); ok {
		tx.writes[i].val, tx.writes[i].b = b.val, b
		return
	}
	tx.writes = append(tx.writes, norecWrite{v: v, val: b.val, b: b})
}

// Update implements Tx.
func (tx *norecTx) Update(v *Var, f func(val any) any) {
	tx.st.writes++
	i := tx.updateSlot(v)
	val := f(tx.writes[i].val) // f may grow tx.writes
	tx.writes[i].val = val
}

// mut implements cellTx: Update(v, keep), then Read(v).
func (tx *norecTx) mut(v *Var) any {
	tx.st.writes++
	i := tx.updateSlot(v)
	tx.st.reads++
	return tx.writes[i].val
}

// updateSlot returns v's write-set index for an update. A first update
// reads the current value (which joins the read set, guarding against lost
// updates), clones it into a private box, and buffers the copy with its
// box.
func (tx *norecTx) updateSlot(v *Var) int32 {
	i, ok := tx.writeIdx.getOrPut(v, int32(len(tx.writes)))
	if ok {
		return i
	}
	// The index entry is in place before the readVar below; a conflict
	// thrown there unwinds the whole attempt, so the index is never seen
	// ahead of its slice entry.
	w := norecWrite{v: v, val: tx.readVar(v)}
	w.b = v.clone(w.val)
	w.val = w.b.val
	tx.st.clones++
	tx.writes = append(tx.writes, w)
	return i
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
	// Before the seqlock acquisition: an attempt a hook aborts here never
	// holds the lock.
	tx.at(sitePreCommit, 0, 0)
	for !tx.eng.seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		// Either a writer holds the lock or time moved on: validate
		// against the newest state (throws on conflict) and retry the
		// acquisition at the extended snapshot.
		tx.snapshot = tx.validate()
	}
	tx.at(siteLocked, uint64(len(tx.writes)), 0)
	// One box per written Var — the one a cell's value was made in, or a
	// fresh one for a plain Write: published snapshots may be held by
	// concurrent readers forever and cannot come from the pool.
	for i := range tx.writes {
		w := &tx.writes[i]
		w.v.cur.Store(publishable(w.b, w.val))
	}
	// The sequence lock is odd, so every reader and committer engine-wide
	// waits out a stall at either site. The commit stamp is the releasing
	// store itself.
	tx.at(siteLockHold, 0, 0)
	tx.at(siteClockTick, 0, 0)
	tx.eng.seq.Store(tx.snapshot + 2)
	return true
}

var (
	_ Engine = (*NOrec)(nil)
	_ coreTx = (*norecTx)(nil)
	_ cellTx = (*norecTx)(nil)
)
