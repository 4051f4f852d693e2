package core

import (
	"cmp"

	"repro/internal/btree"
	"repro/stm"
)

// Index is one Table-1 index, represented the paper's way: the whole index
// is ONE object — a single Var holding a B-tree. Every writer of the index
// writes that Var, so index writers serialize and abort every concurrent
// reader of the index: the pathology of the object-granular STM (§5). The
// transaction's private copy of the tree is taken in O(1) and shares nodes
// with the committed tree (see package btree), so what the paper prices is
// the conflict, not a copy of the whole index.
//
// All methods run inside the caller's transaction.
type Index[K cmp.Ordered, V any] struct {
	c *stm.Cell[*btree.Map[K, V]]
}

func newIndex[K cmp.Ordered, V any](space *stm.VarSpace, domain string) *Index[K, V] {
	c := stm.NewCellClone(space, btree.New[K, V](), (*btree.Map[K, V]).Clone)
	c.Var().SetName(domain)
	return &Index[K, V]{c: c}
}

func (x *Index[K, V]) Get(tx stm.Tx, k K) (V, bool) { return x.c.Get(tx).Get(k) }

func (x *Index[K, V]) Put(tx stm.Tx, k K, v V) { (*x.c.Mut(tx)).Put(k, v) }

func (x *Index[K, V]) Delete(tx stm.Tx, k K) (V, bool) { return (*x.c.Mut(tx)).Delete(k) }

// Move re-keys the entry under from to to — Delete(from), then Put(to) of
// what it removed, replacing an entry already there — and reports whether
// from was present. It is the update of an indexed attribute, and it is one
// write of the index: one open of the index Var and one walk of the tree
// (btree.Map.Move), which for a date toggle's two adjacent DateKeys ends in
// one key store in a leaf.
func (x *Index[K, V]) Move(tx stm.Tx, from, to K) bool { return (*x.c.Mut(tx)).Move(from, to) }

func (x *Index[K, V]) Ascend(tx stm.Tx, fn func(K, V) bool) { x.c.Get(tx).Ascend(fn) }

// Range calls fn for every entry with lo <= key <= hi in ascending order, as
// the walk reaches it, until fn returns false. The walk is over the tree the
// transaction sees — its private copy if it wrote the index, else the
// committed tree, whose nodes every reader shares. fn may read and write
// anything in tx except this index: a Put, Delete or Move on the index being
// ranged edits nodes the walk is over once the transaction owns them, and
// leaves the rest of the walk undefined (entries skipped or seen twice).
// Collect first if the loop body must change the index.
func (x *Index[K, V]) Range(tx stm.Tx, lo, hi K, fn func(K, V) bool) {
	x.c.Get(tx).Range(lo, hi, fn)
}

func (x *Index[K, V]) Len(tx stm.Tx) int { return x.c.Get(tx).Len() }
