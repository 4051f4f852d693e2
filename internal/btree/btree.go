// Package btree implements an in-memory B-tree map with ordered keys.
//
// It is the index substrate for the STMBench7 reproduction (Table 1 of the
// paper lists six indexes over the shared data structure). The paper's §5
// discussion — "the indexes could be implemented manually, using, for
// example, B-trees" — is why this is a B-tree rather than a hash map: the
// build-date index needs range scans (operations OP2/OP3 query build-date
// ranges), and the transactional-index extension (internal/txbtree) reuses
// the same node discipline.
//
// A Map is NOT safe for concurrent mutation; in the benchmark each index
// lives in a single stm Var and all access is mediated by a transaction or
// an external lock.
//
// # Clone
//
// Clone is O(1): the copy shares every node with the receiver and copies a
// node only when it first writes to it (lazy path copying). Each tree has an
// owner token and stamps it on the nodes it allocates; a tree edits a node
// in place iff the node carries its token, and otherwise replaces it by a
// copy it owns, on the way down. One Put or Delete on a fresh clone
// therefore copies one root-to-leaf path, and later writes to the same
// nodes are in place.
//
// The contract: the RECEIVER IS FROZEN AFTER Clone. It stays fully readable,
// it may be cloned again (from any number of goroutines at once, because
// Clone does not write to it), but it must never be mutated, since its clones
// read the nodes it owns. That is exactly what the STM guarantees for a
// committed value: a transaction mutates only its private copy, and the copy
// is frozen by being published. Older versions kept by a multi-version
// engine share nodes with newer ones and stay readable for the same reason.
// Values are shared between a tree and its clones, never copied.
//
// Each Table-1 index is still ONE Var, so the paper's §5 cost model keeps its
// conflict half: any two transactions that write the same index conflict on
// that Var and serialize, and every reader of the index conflicts with every
// writer of it. Only the wholesale copy — an implementation cost of the
// eager clone, not a property of the object-granular protocol — is gone.
package btree

import (
	"cmp"
	"slices"
)

// degree is the minimum degree t of the B-tree: every node except the root
// holds between t-1 and 2t-1 keys. 16 keeps nodes around two cache lines of
// keys for integer keys.
const degree = 16

const (
	maxKeys = 2*degree - 1
	minKeys = degree - 1
)

// token identifies the tree that may edit a node in place. It has a size so
// that every allocation is a distinct address.
type token struct{ _ byte }

// Map is a B-tree map from ordered keys to arbitrary values. The zero value
// is not usable; call New.
type Map[K cmp.Ordered, V any] struct {
	root  *node[K, V]
	size  int
	owner *token
}

type node[K cmp.Ordered, V any] struct {
	owner    *token
	keys     []K
	vals     []V
	children []*node[K, V] // nil for leaves
}

// New returns an empty map.
func New[K cmp.Ordered, V any]() *Map[K, V] {
	o := new(token)
	return &Map[K, V]{root: &node[K, V]{owner: o}, owner: o}
}

// Clone returns a copy of the map in O(1). The receiver is frozen from here
// on: it may be read and cloned, never mutated (see the package comment).
func (m *Map[K, V]) Clone() *Map[K, V] {
	return &Map[K, V]{root: m.root, size: m.size, owner: new(token)}
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// writable returns n if o owns it and a copy owned by o otherwise. The copy
// has room for one more entry, so the insert that usually follows does not
// grow it again.
func (n *node[K, V]) writable(o *token) *node[K, V] {
	if n.owner == o {
		return n
	}
	c := &node[K, V]{
		owner: o,
		keys:  append(make([]K, 0, len(n.keys)+1), n.keys...),
		vals:  append(make([]V, 0, len(n.vals)+1), n.vals...),
	}
	if !n.leaf() {
		c.children = append(make([]*node[K, V], 0, len(n.children)+1), n.children...)
	}
	return c
}

// writableChild makes children[i] writable by o, relinking it if that took a
// copy. n itself must be writable.
func (n *node[K, V]) writableChild(o *token, i int) *node[K, V] {
	c := n.children[i].writable(o)
	n.children[i] = c
	return c
}

// shrink truncates s to n elements and zeroes the vacated slots: a slot past
// len still pins what it references for as long as the node lives.
func shrink[T any](s []T, n int) []T {
	clear(s[n:])
	return s[:n]
}

// find returns the position of the first key >= k and whether it equals k.
func (n *node[K, V]) find(k K) (int, bool) {
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

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return m.size }

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	n := m.root
	for {
		i, ok := n.find(k)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Put stores v under k, returning the previous value and whether one
// existed.
func (m *Map[K, V]) Put(k K, v V) (V, bool) {
	o := m.owner
	m.root = m.root.writable(o)
	if len(m.root.keys) == maxKeys {
		m.root = &node[K, V]{owner: o, children: []*node[K, V]{m.root}}
		m.root.splitChild(o, 0)
	}
	prev, replaced := m.root.insert(o, k, v)
	if !replaced {
		m.size++
	}
	return prev, replaced
}

// insert inserts into a non-full subtree whose root n is writable by o.
func (n *node[K, V]) insert(o *token, k K, v V) (V, bool) {
	i, ok := n.find(k)
	if ok {
		prev := n.vals[i]
		n.vals[i] = v
		return prev, true
	}
	if n.leaf() {
		n.keys = slices.Insert(n.keys, i, k)
		n.vals = slices.Insert(n.vals, i, v)
		var zero V
		return zero, false
	}
	if len(n.children[i].keys) == maxKeys {
		n.splitChild(o, i)
		if k == n.keys[i] {
			prev := n.vals[i]
			n.vals[i] = v
			return prev, true
		}
		if k > n.keys[i] {
			i++
		}
	}
	return n.writableChild(o, i).insert(o, k, v)
}

// splitChild splits the full child at index i, hoisting its median into n.
func (n *node[K, V]) splitChild(o *token, i int) {
	child := n.writableChild(o, i)
	mid := maxKeys / 2
	midKey, midVal := child.keys[mid], child.vals[mid]

	right := &node[K, V]{
		owner: o,
		keys:  append([]K(nil), child.keys[mid+1:]...),
		vals:  append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*node[K, V](nil), child.children[mid+1:]...)
		child.children = shrink(child.children, mid+1)
	}
	child.keys = shrink(child.keys, mid)
	child.vals = shrink(child.vals, mid)

	n.keys = slices.Insert(n.keys, i, midKey)
	n.vals = slices.Insert(n.vals, i, midVal)
	n.children = slices.Insert(n.children, i+1, right)
}

// Delete removes k, returning the removed value and whether it existed.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	m.root = m.root.writable(m.owner)
	v, ok := m.root.delete(m.owner, k)
	if ok {
		m.size--
	}
	if len(m.root.keys) == 0 && !m.root.leaf() {
		m.root = m.root.children[0]
	}
	return v, ok
}

// delete removes k from the subtree rooted at n, which is writable by o and
// has more than minKeys keys unless it is the root (standard CLRS
// discipline).
func (n *node[K, V]) delete(o *token, k K) (V, bool) {
	i, found := n.find(k)
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		v := n.vals[i]
		n.keys = slices.Delete(n.keys, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		return v, true
	}
	if found {
		v := n.vals[i]
		switch {
		case len(n.children[i].keys) > minKeys:
			n.keys[i], n.vals[i] = n.writableChild(o, i).removeMax(o)
		case len(n.children[i+1].keys) > minKeys:
			n.keys[i], n.vals[i] = n.writableChild(o, i+1).removeMin(o)
		default:
			n.mergeChildren(o, i)
			_, _ = n.children[i].delete(o, k)
		}
		return v, true
	}
	// Descend, topping up the child first if it is minimal.
	if len(n.children[i].keys) == minKeys {
		i = n.fill(o, i)
	}
	return n.writableChild(o, i).delete(o, k)
}

// removeMax removes and returns the largest entry of the subtree.
func (n *node[K, V]) removeMax(o *token) (K, V) {
	if n.leaf() {
		last := len(n.keys) - 1
		k, v := n.keys[last], n.vals[last]
		n.keys = shrink(n.keys, last)
		n.vals = shrink(n.vals, last)
		return k, v
	}
	if last := len(n.children) - 1; len(n.children[last].keys) == minKeys {
		n.fill(o, last) // may merge the last two children
	}
	return n.writableChild(o, len(n.children)-1).removeMax(o)
}

// removeMin removes and returns the smallest entry of the subtree.
func (n *node[K, V]) removeMin(o *token) (K, V) {
	if n.leaf() {
		k, v := n.keys[0], n.vals[0]
		n.keys = slices.Delete(n.keys, 0, 1)
		n.vals = slices.Delete(n.vals, 0, 1)
		return k, v
	}
	if len(n.children[0].keys) == minKeys {
		n.fill(o, 0)
	}
	return n.writableChild(o, 0).removeMin(o)
}

// fill ensures children[i] has more than minKeys keys, borrowing from a
// sibling or merging. It returns the index at which the (possibly merged)
// child now lives.
func (n *node[K, V]) fill(o *token, i int) int {
	switch {
	case i > 0 && len(n.children[i-1].keys) > minKeys:
		n.borrowFromLeft(o, i)
		return i
	case i < len(n.children)-1 && len(n.children[i+1].keys) > minKeys:
		n.borrowFromRight(o, i)
		return i
	case i > 0:
		n.mergeChildren(o, i-1)
		return i - 1
	default:
		n.mergeChildren(o, i)
		return i
	}
}

// borrowFromLeft rotates through the parent: the separator moves down into
// children[i], the left sibling's maximum moves up.
func (n *node[K, V]) borrowFromLeft(o *token, i int) {
	child, left := n.writableChild(o, i), n.writableChild(o, i-1)
	last := len(left.keys) - 1
	child.keys = slices.Insert(child.keys, 0, n.keys[i-1])
	child.vals = slices.Insert(child.vals, 0, n.vals[i-1])
	n.keys[i-1], n.vals[i-1] = left.keys[last], left.vals[last]
	left.keys = shrink(left.keys, last)
	left.vals = shrink(left.vals, last)
	if !child.leaf() {
		child.children = slices.Insert(child.children, 0, left.children[last+1])
		left.children = shrink(left.children, last+1)
	}
}

// borrowFromRight is the mirror image of borrowFromLeft.
func (n *node[K, V]) borrowFromRight(o *token, i int) {
	child, right := n.writableChild(o, i), n.writableChild(o, i+1)
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	n.keys[i], n.vals[i] = right.keys[0], right.vals[0]
	right.keys = slices.Delete(right.keys, 0, 1)
	right.vals = slices.Delete(right.vals, 0, 1)
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = slices.Delete(right.children, 0, 1)
	}
}

// mergeChildren merges children[i], keys[i], children[i+1] into one node.
// The right child is only read: it may be shared, and it is dropped whole.
func (n *node[K, V]) mergeChildren(o *token, i int) {
	left, right := n.writableChild(o, i), n.children[i+1]
	left.keys = append(append(left.keys, n.keys[i]), right.keys...)
	left.vals = append(append(left.vals, n.vals[i]), right.vals...)
	if !left.leaf() {
		left.children = append(left.children, right.children...)
	}
	n.keys = slices.Delete(n.keys, i, i+1)
	n.vals = slices.Delete(n.vals, i, i+1)
	n.children = slices.Delete(n.children, i+1, i+2)
}

// Ascend calls fn for every entry in ascending key order until fn returns
// false.
func (m *Map[K, V]) Ascend(fn func(K, V) bool) {
	m.root.ascend(fn)
}

func (n *node[K, V]) ascend(fn func(K, V) bool) bool {
	for i := range n.keys {
		if !n.leaf() && !n.children[i].ascend(fn) {
			return false
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(fn)
	}
	return true
}

// Range calls fn for every entry with lo <= key <= hi in ascending order
// until fn returns false. fn must not Put into or Delete from m: the walk
// holds positions in nodes that m edits in place once it owns them, so what
// it visits after a write is undefined. Writing a Clone of m from fn is
// safe (the clone copies every node it touches first).
func (m *Map[K, V]) Range(lo, hi K, fn func(K, V) bool) {
	m.root.rang(lo, hi, fn)
}

func (n *node[K, V]) rang(lo, hi K, fn func(K, V) bool) bool {
	i, _ := n.find(lo)
	for ; i < len(n.keys); i++ {
		if !n.leaf() && !n.children[i].rang(lo, hi, fn) {
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
		return n.children[len(n.children)-1].rang(lo, hi, fn)
	}
	return true
}

// Min returns the smallest entry.
func (m *Map[K, V]) Min() (K, V, bool) {
	if m.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	n := m.root
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest entry.
func (m *Map[K, V]) Max() (K, V, bool) {
	if m.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	n := m.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
}

// Keys returns all keys in ascending order (mostly for tests/debug).
func (m *Map[K, V]) Keys() []K {
	out := make([]K, 0, m.size)
	m.Ascend(func(k K, _ V) bool { out = append(out, k); return true })
	return out
}
