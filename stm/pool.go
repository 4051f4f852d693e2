package stm

import "sync"

// Transaction-descriptor pooling.
//
// Every engine keeps a sync.Pool of its descriptor type so that the
// steady-state cost of Atomic is zero heap allocations for read-only
// transactions: the descriptor, its read/write-set slices, its varIndex
// spill tables and (for TL2) its commit scratch space all survive from one
// transaction to the next. The engine's reset() method — called once per
// attempt — must restore every field to a fresh-attempt state while
// *reusing* that storage (slices truncated with s[:0], indexes cleared with
// varIndex.reset, scratch buffers kept at capacity). See the "descriptor
// pooling contract" section in the package documentation for what a new
// engine must guarantee before it may recycle its descriptors.
//
// Descriptors are returned to the pool on every normal exit from Atomic
// (commit, user abort, exhausted retry budget). A user panic unwinding
// through Atomic deliberately drops the descriptor instead: its state is
// mid-attempt garbage, and correctness beats recycling one object.
//
// Before a descriptor is pooled, engines clear the user values buffered in
// its read/write sets so that a pooled descriptor cannot pin a committed
// transaction's object graph in memory. The scrub is bounded by use, not by
// capacity: a descriptor comes out of the pool with every slot of every set
// zero, a call dirties a set only up to the longest it was in any of the
// call's attempts (truncate records that), and scrub clears exactly that
// prefix — so a 3-read transaction's epilogue costs 3 slots whatever the
// largest transaction the descriptor ever ran. The Var-to-index lookups are
// reset with the sets: their (at most 16) inline keys are the only *Vars left
// in a descriptor, a Var may be one cell of a NewCells slab, and one pointer
// into a slab keeps all of it; the spill tables hold Var ids, not pointers
// (txset.go). A pooled descriptor references no Var and no value.

// truncate empties s for the next attempt of a call and raises *hi to the
// length this attempt reached.
func truncate[T any](s []T, hi *int) []T {
	*hi = max(*hi, len(s))
	return s[:0]
}

// scrub zeroes every slot of s the ending call wrote — up to the longest s
// was in any of its attempts, the last included — and returns s empty with
// *hi reset, the state the next call's first truncate expects.
func scrub[T any](s []T, hi *int) []T {
	clear(s[:max(*hi, len(s))])
	*hi = 0
	return s[:0]
}

// txPool is a typed wrapper around sync.Pool for per-engine transaction
// descriptors. init must be called once (from the engine constructor)
// before get.
type txPool[T any] struct {
	pool sync.Pool
	mk   func() *T
}

func (p *txPool[T]) init(mk func() *T) { p.mk = mk }

func (p *txPool[T]) get() *T {
	if v := p.pool.Get(); v != nil {
		return v.(*T)
	}
	return p.mk()
}

func (p *txPool[T]) put(t *T) { p.pool.Put(t) }
