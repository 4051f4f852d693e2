// Package btree implements an in-memory B-tree map with ordered keys.
//
// It is the index substrate for the STMBench7 reproduction (Table 1 of the
// paper lists six indexes over the shared data structure). The paper's §5
// discussion — "the indexes could be implemented manually, using, for
// example, B-trees" — is why this is a B-tree rather than a hash map: the
// build-date index needs range scans (operations OP2/OP3 query build-date
// ranges).
//
// A Map is NOT safe for concurrent mutation; in the benchmark each index
// lives in a single stm Var and all access is mediated by a transaction or
// an external lock.
//
// # Nodes
//
// A node is one object: fixed arrays of maxKeys keys and maxKeys values, a
// count, and a pointer to an array of maxKeys+1 children that only internal
// nodes have. A leaf — about 96 % of nodes at this degree — is therefore a
// single allocation (576 bytes for word-sized K and V) whatever its fill, a
// lookup reads keys at a fixed offset from the node pointer, and a copy is
// one assignment. Values are stored inline, so a node is as large as maxKeys
// values and a path copy moves that many per level: a large V belongs behind
// a pointer. A slot at or past the count is always zero (CheckInvariants
// fails on one that is not), because a node lives as long as any tree that
// shares it and a stale slot would pin what it references for as long.
//
// # Clone
//
// Clone is O(1): the copy shares every node with the receiver and copies a
// node only when it first writes to it (lazy path copying). Each tree has an
// owner token and stamps it on the nodes it allocates; a tree edits a node
// in place iff the node carries its token, and otherwise replaces it by a
// copy it owns, on the way down. One Put, Delete or Move on a fresh clone
// therefore copies one root-to-leaf path, and later writes to the same nodes
// are in place. Move copies that one path when no key lies between its two
// keys and the first is in a leaf: it then overwrites the key where it
// stands, which is what a date toggle under the build-date index's key
// (core.DateKey) always asks for. Otherwise it copies the path to where its
// two keys part, and one branch from there for each.
//
// A map keeps a finger on the leaf, and the slot in it, of its last in-place
// Move. The next Move whose first key lies strictly between that leaf's
// first and last keys starts in the leaf instead of at the root, and at the
// slot if the key is still there: a date toggled back and forth is one
// descent and then key stores. The finger is only as good as the tree's
// shape, so Put, Delete and Move's general path clear it. Clone returns a
// map without one, and only a mutation writes it, so a frozen receiver's
// finger is never touched.
//
// The contract: the RECEIVER IS FROZEN AFTER Clone. It stays fully readable,
// it may be cloned again (from any number of goroutines at once, because
// Clone does not write to it), but it must never be mutated, since its clones
// read the nodes it owns. That is exactly what the STM guarantees for a
// committed value: a transaction mutates only its private copy, and the copy
// is frozen by being published. Values are shared between a tree and its clones, never copied.
//
// Each Table-1 index is still ONE Var, so the paper's §5 cost model keeps its
// conflict half: any two transactions that write the same index conflict on
// that Var and serialize, and every reader of the index conflicts with every
// writer of it. Only the wholesale copy — an implementation cost of the
// eager clone, not a property of the object-granular protocol — is gone.
package btree

import "cmp"

// degree is the minimum degree t of the B-tree: every node except the root
// holds between t-1 and 2t-1 keys. At 16 the keys of a node with word-sized
// K are four cache lines, which a binary search touches two or three of. The
// build-date index is three levels deep at Small (2 000 entries) and four at
// Medium (100 000).
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

	// finger is the leaf of the last in-place re-key and fslot the slot in
	// it (see Move); nil when the last mutation may have moved the leaf.
	finger *node[K, V]
	fslot  int
}

// node holds n entries in keys[:n] and vals[:n] and, if it is internal, n+1
// children in kids[:n+1]. Every slot past those is zero.
type node[K cmp.Ordered, V any] struct {
	owner *token
	n     int
	keys  [maxKeys]K
	vals  [maxKeys]V
	kids  *[maxKeys + 1]*node[K, V] // nil for leaves
}

// New returns an empty map.
func New[K cmp.Ordered, V any]() *Map[K, V] {
	o := new(token)
	return &Map[K, V]{root: &node[K, V]{owner: o}, owner: o}
}

// Clone returns a copy of the map in O(1), without a finger. The receiver is
// frozen from here on: it may be read and cloned, never mutated (see the
// package comment).
func (m *Map[K, V]) Clone() *Map[K, V] {
	return &Map[K, V]{root: m.root, size: m.size, owner: new(token)}
}

func (n *node[K, V]) leaf() bool { return n.kids == nil }

// writable returns n if o owns it and a copy owned by o otherwise.
func (n *node[K, V]) writable(o *token) *node[K, V] {
	if n.owner == o {
		return n
	}
	c := new(node[K, V])
	*c = *n
	c.owner = o
	if n.kids != nil {
		c.kids = new([maxKeys + 1]*node[K, V])
		*c.kids = *n.kids
	}
	return c
}

// writableChild makes kids[i] writable by o, relinking it if that took a
// copy. n itself must be writable.
func (n *node[K, V]) writableChild(o *token, i int) *node[K, V] {
	c := n.kids[i]
	if c.owner != o {
		c = c.writable(o)
		n.kids[i] = c
	}
	return c
}

// insertAt opens entry slot i and stores (k, v) there. n must not be full.
func (n *node[K, V]) insertAt(i int, k K, v V) {
	copy(n.keys[i+1:n.n+1], n.keys[i:n.n])
	copy(n.vals[i+1:n.n+1], n.vals[i:n.n])
	n.keys[i], n.vals[i] = k, v
	n.n++
}

// removeAt closes entry slot i, zeroes the slot that vacates and returns what
// was stored at i.
func (n *node[K, V]) removeAt(i int) (K, V) {
	k, v := n.keys[i], n.vals[i]
	n.n--
	copy(n.keys[i:n.n], n.keys[i+1:n.n+1])
	copy(n.vals[i:n.n], n.vals[i+1:n.n+1])
	var (
		zk K
		zv V
	)
	n.keys[n.n], n.vals[n.n] = zk, zv
	return k, v
}

// insertKidAt opens child slot i for c. It pairs with an insertAt that has
// already run: n.n counts the new entry, so the node has n.n children coming
// in and n.n+1 going out.
func (n *node[K, V]) insertKidAt(i int, c *node[K, V]) {
	copy(n.kids[i+1:n.n+1], n.kids[i:n.n])
	n.kids[i] = c
}

// removeKidAt closes child slot i after the matching removeAt: n.n+2
// children coming in, n.n+1 going out.
func (n *node[K, V]) removeKidAt(i int) {
	copy(n.kids[i:n.n+1], n.kids[i+1:n.n+2])
	n.kids[n.n+1] = nil
}

// find returns the position of the first key >= k and whether it equals k.
//
// The search has no branch that depends on a key: each step turns the
// comparison into 0 or 1 and advances lo by half under that mask. Written
// as `if keys[mid] < k { lo = mid + 1 }` the compiler keeps a conditional
// jump (it does not if-convert a loop-carried variable), and on the
// build-date index's keys that jump is a coin flip. The answer is always in
// [lo, lo+length]; rounding half up lets the same step finish the search, so
// there is no last comparison outside the loop.
func (n *node[K, V]) find(k K) (int, bool) {
	lo := 0
	for length := n.n; length > 0; {
		half := (length + 1) >> 1
		lt := 0
		if n.keys[lo+half-1] < k {
			lt = 1
		}
		lo += half & -lt
		length -= half
	}
	return lo, lo < n.n && n.keys[lo] == k
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
		n = n.kids[i]
	}
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// writableRoot makes the root writable and, if it is full, grows the tree by
// one level so that an insert can start from it.
func (m *Map[K, V]) writableRoot() *node[K, V] {
	o := m.owner
	m.root = m.root.writable(o)
	if m.root.n == maxKeys {
		r := &node[K, V]{owner: o, kids: new([maxKeys + 1]*node[K, V])}
		r.kids[0] = m.root
		r.splitChild(o, 0)
		m.root = r
	}
	return m.root
}

// collapseRoot drops a root that a delete left with no key and one child.
func (m *Map[K, V]) collapseRoot() {
	if m.root.n == 0 && !m.root.leaf() {
		m.root = m.root.kids[0]
	}
}

// Put stores v under k, returning the previous value and whether one
// existed.
func (m *Map[K, V]) Put(k K, v V) (V, bool) {
	m.finger = nil
	prev, replaced := m.writableRoot().insert(m.owner, k, v)
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
		n.insertAt(i, k, v)
		var zero V
		return zero, false
	}
	if n.kids[i].n == maxKeys {
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
	const mid = maxKeys / 2
	midKey, midVal := child.keys[mid], child.vals[mid]

	right := &node[K, V]{owner: o, n: maxKeys - mid - 1}
	copy(right.keys[:], child.keys[mid+1:])
	copy(right.vals[:], child.vals[mid+1:])
	if !child.leaf() {
		right.kids = new([maxKeys + 1]*node[K, V])
		copy(right.kids[:], child.kids[mid+1:])
		clear(child.kids[mid+1:])
	}
	clear(child.keys[mid:])
	clear(child.vals[mid:])
	child.n = mid

	n.insertAt(i, midKey, midVal)
	n.insertKidAt(i+1, right)
}

// Delete removes k, returning the removed value and whether it existed.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	m.finger = nil
	m.root = m.root.writable(m.owner)
	v, ok := m.root.delete(m.owner, k)
	if ok {
		m.size--
	}
	m.collapseRoot()
	return v, ok
}

// Move re-keys the entry stored under from to to and reports whether from was
// present: Delete(from) and, if that found a value, Put(to, value) — an entry
// already under to is replaced.
//
// When no key lies between from and to and from is in a leaf, the move is
// one key store where from stands (rekey): no entry shifts, no node splits
// or merges, and the tree keeps its shape. Otherwise it is one descent: the
// two keys walk down together for as long as they route to the same child
// and that child is one both a delete and an insert may start from; from
// there each goes its own way. Keys that are near each other part at the
// last level or the one above it.
//
// A from strictly inside the leaf of the last in-place move is in that leaf,
// which the map owns: the move starts at the finger (see the package
// comment) and is in place or takes the general path.
func (m *Map[K, V]) Move(from, to K) bool {
	if n := m.finger; n != nil && n.keys[0] < from && from < n.keys[n.n-1] {
		i, found := m.fslot, n.keys[m.fslot] == from
		if !found {
			if i, found = n.find(from); !found {
				return false
			}
		}
		// i is an inner slot, so both neighbours are in the leaf.
		if n.keys[i-1] < to && to < n.keys[i+1] {
			n.keys[i], m.fslot = to, i
			return true
		}
	} else if done, found := m.rekey(from, to); done {
		return found
	}
	m.finger = nil
	o := m.owner
	n := m.writableRoot()
	i, found := n.find(from)
	for !found && !n.leaf() {
		j, hit := n.find(to)
		if c := n.kids[i]; hit || j != i || c.n <= minKeys || c.n >= maxKeys {
			break
		}
		n = n.writableChild(o, i)
		i, found = n.find(from)
	}
	v, ok := n.deleteAt(o, from, i, found)
	if ok {
		// The delete took no key away from above n and left n short of
		// full, so to still belongs under n and n can take it.
		if _, replaced := n.insert(o, to, v); replaced {
			m.size--
		}
	}
	m.collapseRoot()
	return ok
}

// rekey is Move's in-place path. It descends towards from, copying the nodes
// it does not own as Put does, and keeps the nearest separators below and
// above the subtree it is in. If from is in a leaf and to lies strictly
// between from's neighbours — the leaf's slots on either side of it, or at
// the leaf's ends those separators — then no other key lies between from and
// to, and overwriting from's key with to is the whole move. done reports
// whether rekey settled the move, found whether from was present. When done
// is false the map holds what it held (only the path to from may have been
// copied) and Move takes its general path.
func (m *Map[K, V]) rekey(from, to K) (done, found bool) {
	o := m.owner
	m.root = m.root.writable(o)
	n := m.root
	var lo, hi K
	hasLo, hasHi := false, false
	i, ok := n.find(from)
	for !n.leaf() {
		if ok {
			return false, false // from is a separator
		}
		if i > 0 {
			lo, hasLo = n.keys[i-1], true
		}
		if i < n.n {
			hi, hasHi = n.keys[i], true
		}
		n = n.writableChild(o, i)
		i, ok = n.find(from)
	}
	if !ok {
		return true, false
	}
	if i > 0 {
		lo, hasLo = n.keys[i-1], true
	}
	if i+1 < n.n {
		hi, hasHi = n.keys[i+1], true
	}
	if (hasLo && to <= lo) || (hasHi && to >= hi) {
		return false, false
	}
	n.keys[i] = to
	m.finger, m.fslot = n, i
	return true, true
}

// delete removes k from the subtree rooted at n, which is writable by o and
// has more than minKeys keys unless it is the root (standard CLRS
// discipline).
func (n *node[K, V]) delete(o *token, k K) (V, bool) {
	i, found := n.find(k)
	return n.deleteAt(o, k, i, found)
}

// deleteAt is delete with n.find(k) already taken.
func (n *node[K, V]) deleteAt(o *token, k K, i int, found bool) (V, bool) {
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		_, v := n.removeAt(i)
		return v, true
	}
	if found {
		v := n.vals[i]
		switch {
		case n.kids[i].n > minKeys:
			n.keys[i], n.vals[i] = n.writableChild(o, i).removeMax(o)
		case n.kids[i+1].n > minKeys:
			n.keys[i], n.vals[i] = n.writableChild(o, i+1).removeMin(o)
		default:
			n.mergeChildren(o, i)
			_, _ = n.kids[i].delete(o, k)
		}
		return v, true
	}
	// Descend, topping up the child first if it is minimal.
	if n.kids[i].n == minKeys {
		i = n.fill(o, i)
	}
	return n.writableChild(o, i).delete(o, k)
}

// removeMax removes and returns the largest entry of the subtree.
func (n *node[K, V]) removeMax(o *token) (K, V) {
	if n.leaf() {
		return n.removeAt(n.n - 1)
	}
	if n.kids[n.n].n == minKeys {
		n.fill(o, n.n) // may merge the last two children
	}
	return n.writableChild(o, n.n).removeMax(o)
}

// removeMin removes and returns the smallest entry of the subtree.
func (n *node[K, V]) removeMin(o *token) (K, V) {
	if n.leaf() {
		return n.removeAt(0)
	}
	if n.kids[0].n == minKeys {
		n.fill(o, 0)
	}
	return n.writableChild(o, 0).removeMin(o)
}

// fill ensures kids[i] has more than minKeys keys, borrowing from a sibling
// or merging. It returns the index at which the (possibly merged) child now
// lives.
func (n *node[K, V]) fill(o *token, i int) int {
	switch {
	case i > 0 && n.kids[i-1].n > minKeys:
		n.borrowFromLeft(o, i)
		return i
	case i < n.n && n.kids[i+1].n > minKeys:
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
// kids[i], the left sibling's maximum moves up.
func (n *node[K, V]) borrowFromLeft(o *token, i int) {
	child, left := n.writableChild(o, i), n.writableChild(o, i-1)
	child.insertAt(0, n.keys[i-1], n.vals[i-1])
	if !child.leaf() {
		child.insertKidAt(0, left.kids[left.n])
	}
	n.keys[i-1], n.vals[i-1] = left.removeAt(left.n - 1)
	if !left.leaf() {
		left.removeKidAt(left.n + 1)
	}
}

// borrowFromRight is the mirror image of borrowFromLeft.
func (n *node[K, V]) borrowFromRight(o *token, i int) {
	child, right := n.writableChild(o, i), n.writableChild(o, i+1)
	child.insertAt(child.n, n.keys[i], n.vals[i])
	if !child.leaf() {
		child.insertKidAt(child.n, right.kids[0])
	}
	n.keys[i], n.vals[i] = right.removeAt(0)
	if !right.leaf() {
		right.removeKidAt(0)
	}
}

// mergeChildren merges kids[i], keys[i], kids[i+1] into one node. The right
// child is only read: it may be shared, and it is dropped whole.
func (n *node[K, V]) mergeChildren(o *token, i int) {
	left, right := n.writableChild(o, i), n.kids[i+1]
	at := left.n + 1
	left.keys[left.n], left.vals[left.n] = n.keys[i], n.vals[i]
	copy(left.keys[at:], right.keys[:right.n])
	copy(left.vals[at:], right.vals[:right.n])
	if !left.leaf() {
		copy(left.kids[at:], right.kids[:right.n+1])
	}
	left.n = at + right.n
	n.removeAt(i)
	n.removeKidAt(i + 1)
}

// Ascend calls fn for every entry in ascending key order until fn returns
// false.
func (m *Map[K, V]) Ascend(fn func(K, V) bool) {
	m.root.ascend(fn)
}

func (n *node[K, V]) ascend(fn func(K, V) bool) bool {
	for i := 0; i < n.n; i++ {
		if !n.leaf() && !n.kids[i].ascend(fn) {
			return false
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.kids[n.n].ascend(fn)
	}
	return true
}

// Range calls fn for every entry with lo <= key <= hi in ascending order
// until fn returns false. fn must not Put into, Delete from or Move within
// m: the walk holds positions in nodes that m edits in place once it owns
// them, so what it visits after a write is undefined. Writing a Clone of m
// from fn is safe (the clone copies every node it touches first).
func (m *Map[K, V]) Range(lo, hi K, fn func(K, V) bool) {
	m.root.rang(lo, hi, fn)
}

func (n *node[K, V]) rang(lo, hi K, fn func(K, V) bool) bool {
	i, _ := n.find(lo)
	for ; i < n.n; i++ {
		if !n.leaf() && !n.kids[i].rang(lo, hi, fn) {
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
		return n.kids[n.n].rang(lo, hi, fn)
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
		n = n.kids[0]
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
		n = n.kids[n.n]
	}
	return n.keys[n.n-1], n.vals[n.n-1], true
}

// Keys returns all keys in ascending order (mostly for tests/debug).
func (m *Map[K, V]) Keys() []K {
	out := make([]K, 0, m.size)
	m.Ascend(func(k K, _ V) bool { out = append(out, k); return true })
	return out
}
