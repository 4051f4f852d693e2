package core

import (
	"cmp"

	"repro/internal/btree"
	"repro/internal/txbtree"
	"repro/stm"
)

// Index is the interface of one Table-1 index. Two representations exist:
//
//   - the paper-faithful one (cellIndex): the whole index is ONE object —
//     a single Var holding a B-tree. Every writer of the index writes that
//     Var, so index writers serialize and abort every concurrent reader of
//     the index: the pathology of the object-granular STM (§5). The
//     transaction's private copy of the tree is taken in O(1) and shares
//     nodes with the committed tree (see package btree), so what the paper
//     prices is the conflict, not a copy of the whole index.
//   - the §5 optimization (txIndex): a transactional B-tree with one Var
//     per node (internal/txbtree), selected with Params.TxIndexes.
//
// All methods run inside the caller's transaction.
type Index[K cmp.Ordered, V any] interface {
	Get(tx stm.Tx, k K) (V, bool)
	Put(tx stm.Tx, k K, v V)
	Delete(tx stm.Tx, k K) (V, bool)
	// Move re-keys the entry under from to to — Delete(from), then Put(to)
	// of what it removed, replacing an entry already there — and reports
	// whether from was present. It is the update of an indexed attribute,
	// and it is one write of the index: under cellIndex one open of the
	// index Var and one walk of the tree (btree.Map.Move), which for a date
	// toggle's two adjacent DateKeys ends in one key store in a leaf.
	Move(tx stm.Tx, from, to K) bool
	Ascend(tx stm.Tx, fn func(K, V) bool)
	// Range calls fn for every entry with lo <= key <= hi in ascending
	// order, as the walk reaches it, until fn returns false. fn may read
	// and write anything in tx except this index: a Put, Delete or Move on the
	// index being ranged leaves the rest of the walk undefined (entries
	// skipped or seen twice; under cellIndex the walk is over nodes the
	// tree edits in place once the transaction owns them). Collect first
	// if the loop body must change the index.
	Range(tx stm.Tx, lo, hi K, fn func(K, V) bool)
	Len(tx stm.Tx) int
}

// cellIndex is the single-object representation.
type cellIndex[K cmp.Ordered, V any] struct {
	c *stm.Cell[*btree.Map[K, V]]
}

func newCellIndex[K cmp.Ordered, V any](space *stm.VarSpace, domain string) *cellIndex[K, V] {
	c := stm.NewCellClone(space, btree.New[K, V](), (*btree.Map[K, V]).Clone)
	c.Var().SetName(domain)
	return &cellIndex[K, V]{c: c}
}

func (x *cellIndex[K, V]) Get(tx stm.Tx, k K) (V, bool) { return x.c.Get(tx).Get(k) }

func (x *cellIndex[K, V]) Put(tx stm.Tx, k K, v V) { (*x.c.Mut(tx)).Put(k, v) }

func (x *cellIndex[K, V]) Delete(tx stm.Tx, k K) (V, bool) { return (*x.c.Mut(tx)).Delete(k) }

func (x *cellIndex[K, V]) Move(tx stm.Tx, from, to K) bool { return (*x.c.Mut(tx)).Move(from, to) }

func (x *cellIndex[K, V]) Ascend(tx stm.Tx, fn func(K, V) bool) { x.c.Get(tx).Ascend(fn) }

// Range walks the tree the transaction sees — its private copy if it wrote
// the index, else the committed tree, whose nodes every reader shares — so
// the Index.Range contract (fn does not write this index) is what keeps
// the walk on one consistent tree.
func (x *cellIndex[K, V]) Range(tx stm.Tx, lo, hi K, fn func(K, V) bool) {
	x.c.Get(tx).Range(lo, hi, fn)
}

func (x *cellIndex[K, V]) Len(tx stm.Tx) int { return x.c.Get(tx).Len() }

// txIndex adapts txbtree.Tree to Index.
type txIndex[K cmp.Ordered, V any] struct {
	t *txbtree.Tree[K, V]
}

func newTxIndex[K cmp.Ordered, V any](space *stm.VarSpace, domain string) *txIndex[K, V] {
	return &txIndex[K, V]{t: txbtree.New[K, V](space, domain)}
}

func (x *txIndex[K, V]) Get(tx stm.Tx, k K) (V, bool)         { return x.t.Get(tx, k) }
func (x *txIndex[K, V]) Put(tx stm.Tx, k K, v V)              { x.t.Put(tx, k, v) }
func (x *txIndex[K, V]) Delete(tx stm.Tx, k K) (V, bool)      { return x.t.Delete(tx, k) }
func (x *txIndex[K, V]) Ascend(tx stm.Tx, fn func(K, V) bool) { x.t.Ascend(tx, fn) }

func (x *txIndex[K, V]) Move(tx stm.Tx, from, to K) bool {
	v, ok := x.t.Delete(tx, from)
	if ok {
		x.t.Put(tx, to, v)
	}
	return ok
}

// Range reads one node Var at a time (txbtree.Tree.Range); see Index.Range
// for what fn may do.
func (x *txIndex[K, V]) Range(tx stm.Tx, lo, hi K, fn func(K, V) bool) {
	x.t.Range(tx, lo, hi, fn)
}
func (x *txIndex[K, V]) Len(tx stm.Tx) int { return x.t.Len(tx) }

func newIndex[K cmp.Ordered, V any](space *stm.VarSpace, domain string, transactional bool) Index[K, V] {
	if transactional {
		return newTxIndex[K, V](space, domain)
	}
	return newCellIndex[K, V](space, domain)
}
