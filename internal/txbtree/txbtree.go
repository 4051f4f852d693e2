// Package txbtree implements a transactional B-tree: a B-tree in which
// every node lives in its own stm Var, so transactions conflict per node
// instead of per index.
//
// This is the optimization §5 of the STMBench7 paper sketches for the
// benchmark's single-object indexes: "The indexes could be implemented
// manually, using, for example, B-trees, with each node synchronized
// separately — this would make them highly scalable data structures." With
// the paper's default representation an index update conflicts on the whole
// index (internal/btree keeps the copy down to one root-to-leaf path, but
// the index is still one Var); here it conflicts only with transactions
// touching the handful of nodes along its own path.
//
// Node values are immutable: every modification builds fresh key/value/
// child slices and replaces the node's cell value, so concurrent
// transactional readers always see consistent snapshots and no clone
// functions are needed. The size counter is striped across several cells so
// that concurrent writers do not all collide on one "size" Var.
package txbtree

import (
	"cmp"

	"repro/stm"
)

// degree is the minimum B-tree degree (nodes hold degree-1 .. 2*degree-1
// keys). Smaller than package btree's: per-node Vars favour shallower
// copies over cache density.
const degree = 8

const (
	maxKeys = 2*degree - 1
	minKeys = degree - 1
)

// sizeStripes spreads size updates over this many cells.
const sizeStripes = 8

type node[K cmp.Ordered, V any] struct {
	keys []K
	vals []V
	kids []*stm.Cell[node[K, V]] // nil for leaves
}

func (n node[K, V]) leaf() bool { return n.kids == nil }

// find returns the position of the first key >= k and whether it equals k.
func (n node[K, V]) find(k K) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && n.keys[lo] == k
}

// Tree is a transactional B-tree map. All methods must be called inside a
// transaction (or through the direct engine under external locking). The
// zero value is not usable; call New.
type Tree[K cmp.Ordered, V any] struct {
	space  *stm.VarSpace
	domain string
	root   *stm.Cell[*stm.Cell[node[K, V]]]
	size   [sizeStripes]*stm.Cell[int]
}

// New returns an empty tree allocating its node Vars from space. domain
// tags every Var (for the benchmark's lock-coverage checks); it may be
// empty.
func New[K cmp.Ordered, V any](space *stm.VarSpace, domain string) *Tree[K, V] {
	t := &Tree[K, V]{space: space, domain: domain}
	t.root = t.newCell2(t.newNode(node[K, V]{}))
	for i := range t.size {
		c := stm.NewCell(space, 0)
		c.Var().SetName(domain)
		t.size[i] = c
	}
	return t
}

func (t *Tree[K, V]) newNode(n node[K, V]) *stm.Cell[node[K, V]] {
	c := stm.NewCell(t.space, n)
	c.Var().SetName(t.domain)
	return c
}

func (t *Tree[K, V]) newCell2(init *stm.Cell[node[K, V]]) *stm.Cell[*stm.Cell[node[K, V]]] {
	c := stm.NewCell(t.space, init)
	c.Var().SetName(t.domain)
	return c
}

func (t *Tree[K, V]) bumpSize(tx stm.Tx, k K, delta int) {
	var h uintptr
	switch kk := any(k).(type) {
	case uint64:
		h = uintptr(kk)
	case int:
		h = uintptr(kk)
	case string:
		for i := 0; i < len(kk); i++ {
			h = h*131 + uintptr(kk[i])
		}
	default:
		h = 0
	}
	*t.size[h%sizeStripes].Mut(tx) += delta
}

// Len returns the number of entries.
func (t *Tree[K, V]) Len(tx stm.Tx) int {
	n := 0
	for i := range t.size {
		n += t.size[i].Get(tx)
	}
	return n
}

// Get returns the value stored under k.
func (t *Tree[K, V]) Get(tx stm.Tx, k K) (V, bool) {
	c := t.root.Get(tx)
	for {
		n := c.Get(tx)
		i, ok := n.find(k)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		c = n.kids[i]
	}
}

// Contains reports whether k is present.
func (t *Tree[K, V]) Contains(tx stm.Tx, k K) bool {
	_, ok := t.Get(tx, k)
	return ok
}

// --- immutable node edits --------------------------------------------------

func insertAt[E any](s []E, i int, e E) []E {
	out := make([]E, len(s)+1)
	copy(out, s[:i])
	out[i] = e
	copy(out[i+1:], s[i:])
	return out
}

func removeAt[E any](s []E, i int) []E {
	out := make([]E, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

func setAt[E any](s []E, i int, e E) []E {
	out := make([]E, len(s))
	copy(out, s)
	out[i] = e
	return out
}

// Put stores v under k, returning the previous value and whether one
// existed.
func (t *Tree[K, V]) Put(tx stm.Tx, k K, v V) (V, bool) {
	rootCell := t.root.Get(tx)
	rootNode := rootCell.Get(tx)
	if len(rootNode.keys) == maxKeys {
		// Grow: new root with the old root as its only child, then split.
		newRoot := node[K, V]{kids: []*stm.Cell[node[K, V]]{rootCell}}
		newRoot = t.splitChild(tx, newRoot, 0)
		rootCell = t.newNode(newRoot)
		t.root.Set(tx, rootCell)
	}
	prev, replaced := t.insertNonFull(tx, rootCell, k, v)
	if !replaced {
		t.bumpSize(tx, k, 1)
	}
	return prev, replaced
}

// splitChild splits parent's full child i, returning the updated parent
// value (the parent cell is NOT written; callers write the result).
func (t *Tree[K, V]) splitChild(tx stm.Tx, parent node[K, V], i int) node[K, V] {
	childCell := parent.kids[i]
	child := childCell.Get(tx)
	mid := maxKeys / 2

	left := node[K, V]{
		keys: append([]K(nil), child.keys[:mid]...),
		vals: append([]V(nil), child.vals[:mid]...),
	}
	right := node[K, V]{
		keys: append([]K(nil), child.keys[mid+1:]...),
		vals: append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		left.kids = append([]*stm.Cell[node[K, V]](nil), child.kids[:mid+1]...)
		right.kids = append([]*stm.Cell[node[K, V]](nil), child.kids[mid+1:]...)
	}
	childCell.Set(tx, left)
	rightCell := t.newNode(right)

	parent.keys = insertAt(parent.keys, i, child.keys[mid])
	parent.vals = insertAt(parent.vals, i, child.vals[mid])
	parent.kids = insertAt(parent.kids, i+1, rightCell)
	return parent
}

func (t *Tree[K, V]) insertNonFull(tx stm.Tx, c *stm.Cell[node[K, V]], k K, v V) (V, bool) {
	n := c.Get(tx)
	i, ok := n.find(k)
	if ok {
		prev := n.vals[i]
		n.vals = setAt(n.vals, i, v)
		c.Set(tx, n)
		return prev, true
	}
	if n.leaf() {
		n.keys = insertAt(n.keys, i, k)
		n.vals = insertAt(n.vals, i, v)
		c.Set(tx, n)
		var zero V
		return zero, false
	}
	if child := n.kids[i].Get(tx); len(child.keys) == maxKeys {
		n = t.splitChild(tx, n, i)
		c.Set(tx, n)
		if k == n.keys[i] {
			prev := n.vals[i]
			n.vals = setAt(n.vals, i, v)
			c.Set(tx, n)
			return prev, true
		}
		if k > n.keys[i] {
			i++
		}
	}
	return t.insertNonFull(tx, n.kids[i], k, v)
}

// Delete removes k, returning the removed value and whether it existed.
func (t *Tree[K, V]) Delete(tx stm.Tx, k K) (V, bool) {
	rootCell := t.root.Get(tx)
	v, ok := t.deleteFrom(tx, rootCell, k)
	if ok {
		t.bumpSize(tx, k, -1)
	}
	root := rootCell.Get(tx)
	if len(root.keys) == 0 && !root.leaf() {
		t.root.Set(tx, root.kids[0])
	}
	return v, ok
}

// deleteFrom removes k from the subtree at c (which has > minKeys keys
// unless it is the root).
func (t *Tree[K, V]) deleteFrom(tx stm.Tx, c *stm.Cell[node[K, V]], k K) (V, bool) {
	n := c.Get(tx)
	i, found := n.find(k)
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		v := n.vals[i]
		n.keys = removeAt(n.keys, i)
		n.vals = removeAt(n.vals, i)
		c.Set(tx, n)
		return v, true
	}
	if found {
		v := n.vals[i]
		leftN := n.kids[i].Get(tx)
		rightN := n.kids[i+1].Get(tx)
		switch {
		case len(leftN.keys) > minKeys:
			pk, pv := t.removeMax(tx, n.kids[i])
			n.keys = setAt(n.keys, i, pk)
			n.vals = setAt(n.vals, i, pv)
			c.Set(tx, n)
		case len(rightN.keys) > minKeys:
			sk, sv := t.removeMin(tx, n.kids[i+1])
			n.keys = setAt(n.keys, i, sk)
			n.vals = setAt(n.vals, i, sv)
			c.Set(tx, n)
		default:
			n = t.mergeChildren(tx, n, i)
			c.Set(tx, n)
			t.deleteFrom(tx, n.kids[i], k)
		}
		return v, true
	}
	if child := n.kids[i].Get(tx); len(child.keys) == minKeys {
		n, i = t.fill(tx, n, i)
		c.Set(tx, n)
	}
	return t.deleteFrom(tx, n.kids[i], k)
}

func (t *Tree[K, V]) removeMax(tx stm.Tx, c *stm.Cell[node[K, V]]) (K, V) {
	n := c.Get(tx)
	if n.leaf() {
		last := len(n.keys) - 1
		k, v := n.keys[last], n.vals[last]
		n.keys = n.keys[:last:last]
		n.vals = n.vals[:last:last]
		c.Set(tx, n)
		return k, v
	}
	i := len(n.kids) - 1
	if child := n.kids[i].Get(tx); len(child.keys) == minKeys {
		n, _ = t.fill(tx, n, i)
		c.Set(tx, n)
		i = len(n.kids) - 1
	}
	return t.removeMax(tx, n.kids[i])
}

func (t *Tree[K, V]) removeMin(tx stm.Tx, c *stm.Cell[node[K, V]]) (K, V) {
	n := c.Get(tx)
	if n.leaf() {
		k, v := n.keys[0], n.vals[0]
		n.keys = removeAt(n.keys, 0)
		n.vals = removeAt(n.vals, 0)
		c.Set(tx, n)
		return k, v
	}
	if child := n.kids[0].Get(tx); len(child.keys) == minKeys {
		n, _ = t.fill(tx, n, 0)
		c.Set(tx, n)
	}
	return t.removeMin(tx, n.kids[0])
}

// fill ensures kids[i] has more than minKeys keys; it returns the updated
// parent value and the (possibly shifted) child index. Callers write the
// parent back.
func (t *Tree[K, V]) fill(tx stm.Tx, n node[K, V], i int) (node[K, V], int) {
	if i > 0 {
		if left := n.kids[i-1].Get(tx); len(left.keys) > minKeys {
			return t.borrowLeft(tx, n, i), i
		}
	}
	if i < len(n.kids)-1 {
		if right := n.kids[i+1].Get(tx); len(right.keys) > minKeys {
			return t.borrowRight(tx, n, i), i
		}
	}
	if i > 0 {
		return t.mergeChildren(tx, n, i-1), i - 1
	}
	return t.mergeChildren(tx, n, i), i
}

func (t *Tree[K, V]) borrowLeft(tx stm.Tx, n node[K, V], i int) node[K, V] {
	leftCell, childCell := n.kids[i-1], n.kids[i]
	left, child := leftCell.Get(tx), childCell.Get(tx)
	last := len(left.keys) - 1

	child.keys = insertAt(child.keys, 0, n.keys[i-1])
	child.vals = insertAt(child.vals, 0, n.vals[i-1])
	if !child.leaf() {
		child.kids = insertAt(child.kids, 0, left.kids[len(left.kids)-1])
	}
	n.keys = setAt(n.keys, i-1, left.keys[last])
	n.vals = setAt(n.vals, i-1, left.vals[last])
	left.keys = left.keys[:last:last]
	left.vals = left.vals[:last:last]
	if !left.leaf() {
		left.kids = left.kids[: len(left.kids)-1 : len(left.kids)-1]
	}
	leftCell.Set(tx, left)
	childCell.Set(tx, child)
	return n
}

func (t *Tree[K, V]) borrowRight(tx stm.Tx, n node[K, V], i int) node[K, V] {
	childCell, rightCell := n.kids[i], n.kids[i+1]
	child, right := childCell.Get(tx), rightCell.Get(tx)

	child.keys = append(append([]K(nil), child.keys...), n.keys[i])
	child.vals = append(append([]V(nil), child.vals...), n.vals[i])
	if !child.leaf() {
		child.kids = append(append([]*stm.Cell[node[K, V]](nil), child.kids...), right.kids[0])
	}
	n.keys = setAt(n.keys, i, right.keys[0])
	n.vals = setAt(n.vals, i, right.vals[0])
	right.keys = removeAt(right.keys, 0)
	right.vals = removeAt(right.vals, 0)
	if !right.leaf() {
		right.kids = removeAt(right.kids, 0)
	}
	childCell.Set(tx, child)
	rightCell.Set(tx, right)
	return n
}

// mergeChildren merges kids[i], keys[i], kids[i+1] into kids[i] and returns
// the updated parent value.
func (t *Tree[K, V]) mergeChildren(tx stm.Tx, n node[K, V], i int) node[K, V] {
	leftCell, rightCell := n.kids[i], n.kids[i+1]
	left, right := leftCell.Get(tx), rightCell.Get(tx)

	merged := node[K, V]{
		keys: append(append(append([]K(nil), left.keys...), n.keys[i]), right.keys...),
		vals: append(append(append([]V(nil), left.vals...), n.vals[i]), right.vals...),
	}
	if !left.leaf() {
		merged.kids = append(append([]*stm.Cell[node[K, V]](nil), left.kids...), right.kids...)
	}
	leftCell.Set(tx, merged)
	n.keys = removeAt(n.keys, i)
	n.vals = removeAt(n.vals, i)
	n.kids = removeAt(n.kids, i+1)
	return n
}

// Ascend calls fn for every entry in ascending key order until fn returns
// false.
func (t *Tree[K, V]) Ascend(tx stm.Tx, fn func(K, V) bool) {
	t.ascend(tx, t.root.Get(tx), fn)
}

func (t *Tree[K, V]) ascend(tx stm.Tx, c *stm.Cell[node[K, V]], fn func(K, V) bool) bool {
	n := c.Get(tx)
	for i := range n.keys {
		if !n.leaf() && !t.ascend(tx, n.kids[i], fn) {
			return false
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return t.ascend(tx, n.kids[len(n.kids)-1], fn)
	}
	return true
}

// Range calls fn for every entry with lo <= key <= hi in ascending order
// until fn returns false. fn must not Put into or Delete from t in tx: each
// level of the walk iterates the node value it read on the way down, so a
// split, merge or rotation made by fn is seen by the levels below it and not
// by the levels above, and what is visited afterwards is undefined.
func (t *Tree[K, V]) Range(tx stm.Tx, lo, hi K, fn func(K, V) bool) {
	t.rang(tx, t.root.Get(tx), lo, hi, fn)
}

func (t *Tree[K, V]) rang(tx stm.Tx, c *stm.Cell[node[K, V]], lo, hi K, fn func(K, V) bool) bool {
	n := c.Get(tx)
	i, _ := n.find(lo)
	for ; i < len(n.keys); i++ {
		if !n.leaf() && !t.rang(tx, n.kids[i], lo, hi, fn) {
			return false
		}
		if n.keys[i] > hi {
			return true
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return t.rang(tx, n.kids[len(n.kids)-1], lo, hi, fn)
	}
	return true
}

// Keys returns all keys in ascending order (tests/debug).
func (t *Tree[K, V]) Keys(tx stm.Tx) []K {
	var out []K
	t.Ascend(tx, func(k K, _ V) bool { out = append(out, k); return true })
	return out
}
