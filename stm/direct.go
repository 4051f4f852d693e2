package stm

import "unsafe"

// Direct is the pass-through engine: no logging, no conflict detection, no
// retries. It implements Tx/Engine so that code written against the stm seam
// can run under external synchronization (the benchmark's lock strategies)
// or single-threaded, at the cost of one interface call and one atomic
// pointer load/store per access.
//
// Direct provides no isolation by itself. Callers are responsible for
// mutual exclusion (e.g. STMBench7's coarse- and medium-grained locking
// acquires read-write locks around Atomic).
type Direct struct {
	space  VarSpace
	stats  statCounters
	txPool txPool[directTx]
}

// NewDirect returns a pass-through engine.
func NewDirect() *Direct {
	d := &Direct{}
	d.txPool.init(func() *directTx { return &directTx{eng: d} })
	return d
}

// Name implements Engine.
func (d *Direct) Name() string { return "direct" }

// VarSpace implements Engine.
func (d *Direct) VarSpace() *VarSpace { return &d.space }

// Stats implements Engine.
func (d *Direct) Stats() Stats { return d.stats.snapshot() }

// Atomic implements Engine. fn runs exactly once; an error from fn is
// returned as-is. Note that under Direct an erroring fn does NOT roll back
// writes it already performed — benchmark operations are written to fail
// before their first write, mirroring the paper's lock-based build, and the
// test suite checks that property.
func (d *Direct) Atomic(fn func(tx Tx) error) error {
	tx := d.txPool.get()
	err := fn(tx)
	d.stats.flushTx(&tx.st)
	if err != nil {
		d.stats.userAborts.Add(1)
	} else {
		d.stats.commits.Add(1)
	}
	d.txPool.put(tx)
	return err
}

// directTx carries no transactional state — all values live in the Vars
// themselves — but it is pooled anyway so the per-access counters batch in
// plain txStats fields like the real engines' (one flush per Atomic instead
// of a contended shared atomic per access: as the paper's lock-based
// baseline, Direct's measured throughput must not be throttled by
// bookkeeping the STM engines no longer pay).
type directTx struct {
	eng *Direct
	st  txStats
}

// Read implements Tx.
func (t *directTx) Read(v *Var) any {
	t.st.reads++
	return v.cur.Load().val
}

// Write implements Tx.
func (t *directTx) Write(v *Var, val any) {
	t.st.writes++
	v.cur.Store(&box{val: val})
}

// Update implements Tx. The callback receives the live value and may mutate
// it in place; whatever it returns is stored. A callback that hands back the
// pointer it was given (every Cell.Mut) has changed the value in place, and
// the box that holds the pointer stands.
func (t *directTx) Update(v *Var, f func(val any) any) {
	t.st.writes++
	b := v.cur.Load()
	if val := f(b.val); !sameValue(val, b.val) {
		v.cur.Store(&box{val: val})
	}
}

// mut implements cellTx: Update(v, keep) stores nothing, so it is Read(v).
func (t *directTx) mut(v *Var) any {
	t.st.writes++
	t.st.reads++
	return v.cur.Load().val
}

// set implements cellTx: Write(v, b.val) in b.
func (t *directTx) set(v *Var, b *box) {
	t.st.writes++
	v.cur.Store(b)
}

// sameValue reports whether a and b are one interface value, word for word:
// the same dynamic type holding the same pointer (or, for a type that is not
// pointer-shaped, the same boxed copy). Unlike a == b it cannot panic on a
// non-comparable dynamic type and never looks at the pointee, and unlike
// reflect it is two word compares, which is what the zero-sync floor can
// afford on every Update.
func sameValue(a, b any) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

var (
	_ Engine = (*Direct)(nil)
	_ Tx     = (*directTx)(nil)
	_ cellTx = (*directTx)(nil)
)
