package btree

import (
	"cmp"
	"fmt"
	"reflect"
)

// CheckInvariants validates the structural invariants of the tree and
// returns a descriptive error on the first violation. The tests of this
// package call it after every mutation they make.
//
// Checked: key ordering within nodes and across subtrees, node fill bounds
// (minKeys..maxKeys for non-root nodes), uniform leaf depth, size
// bookkeeping, and that every key, value and child slot past a node's count
// is zero — a stale one would keep what it references reachable for as long
// as any tree shares the node.
func (m *Map[K, V]) CheckInvariants() error {
	if m.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	count := 0
	_, err := check(m.root, true, nil, nil, &count)
	if err != nil {
		return err
	}
	if count != m.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", m.size, count)
	}
	return nil
}

// check validates the subtree and returns its leaf depth.
func check[K cmp.Ordered, V any](n *node[K, V], isRoot bool, lo, hi *K, count *int) (int, error) {
	if !isRoot && n.n < minKeys {
		return 0, fmt.Errorf("btree: underfull node (%d keys)", n.n)
	}
	if n.n < 0 || n.n > maxKeys {
		return 0, fmt.Errorf("btree: node with %d keys", n.n)
	}
	for i := 0; i < n.n; i++ {
		if i > 0 && n.keys[i-1] >= n.keys[i] {
			return 0, fmt.Errorf("btree: keys out of order at %d", i)
		}
		if lo != nil && n.keys[i] <= *lo {
			return 0, fmt.Errorf("btree: key below subtree lower bound")
		}
		if hi != nil && n.keys[i] >= *hi {
			return 0, fmt.Errorf("btree: key above subtree upper bound")
		}
	}
	var zk K
	for i := n.n; i < maxKeys; i++ {
		if n.keys[i] != zk {
			return 0, fmt.Errorf("btree: vacated key slot %d of a %d-key node is not zero", i, n.n)
		}
		// V is not comparable, so its zero test goes through reflect.
		if !reflect.ValueOf(&n.vals[i]).Elem().IsZero() {
			return 0, fmt.Errorf("btree: vacated value slot %d of a %d-key node is not zero", i, n.n)
		}
	}
	*count += n.n
	if n.leaf() {
		return 1, nil
	}
	depth := -1
	for i, c := range n.kids {
		if i > n.n {
			if c != nil {
				return 0, fmt.Errorf("btree: vacated child slot %d of a %d-key node is not nil", i, n.n)
			}
			continue
		}
		if c == nil {
			return 0, fmt.Errorf("btree: internal node with %d keys has no child %d", n.n, i)
		}
		var cLo, cHi *K
		if i > 0 {
			cLo = &n.keys[i-1]
		} else {
			cLo = lo
		}
		if i < n.n {
			cHi = &n.keys[i]
		} else {
			cHi = hi
		}
		d, err := check(c, false, cLo, cHi, count)
		if err != nil {
			return 0, err
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return 0, fmt.Errorf("btree: non-uniform leaf depth (%d vs %d)", d, depth)
		}
	}
	return depth + 1, nil
}
