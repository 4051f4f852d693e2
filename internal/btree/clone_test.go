package btree

import (
	"cmp"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/rng"
)

// member is one tree of a family related by Clone, with the model of what it
// must contain. A member is frozen once it has been cloned.
type member struct {
	m      *Map[uint16, uint16]
	model  map[uint16]uint16
	frozen bool
}

// family drives Put, Delete, Move and Clone over a growing set of related
// trees — chains of clones and several clones of one frozen tree — the way
// the STM does: only trees that were never cloned are mutated.
type family struct {
	members []*member
	live    []*member
}

// maxMembers bounds the cost of checking a family.
const maxMembers = 48

// newFamily starts from one tree holding every even key below 2*n, tall
// enough at n = 600 to have internal nodes to share.
func newFamily(n int) *family {
	root := &member{m: New[uint16, uint16](), model: map[uint16]uint16{}}
	for i := 0; i < n; i++ {
		k := uint16(2 * i)
		root.m.Put(k, k)
		root.model[k] = k
	}
	return &family{members: []*member{root}, live: []*member{root}}
}

// The kinds of step, modulo numKinds. Put is twice as likely as the rest.
const (
	kindPut = iota
	kindPut2
	kindDelete
	kindClone
	kindMove
	numKinds
)

// step applies one operation to the tree which selects: Put(key, val),
// Delete(key), Move(key, to), or Clone of any member, frozen or not.
func (f *family) step(t testing.TB, kind, which uint8, key, val, to uint16) {
	t.Helper()
	switch kind % numKinds {
	case kindPut, kindPut2:
		mb := f.live[int(which)%len(f.live)]
		mb.m.Put(key, val)
		mb.model[key] = val
	case kindDelete:
		mb := f.live[int(which)%len(f.live)]
		mb.m.Delete(key)
		delete(mb.model, key)
	case kindMove:
		mb := f.live[int(which)%len(f.live)]
		v, ok := mb.model[key]
		if ok {
			delete(mb.model, key)
			mb.model[to] = v
		}
		if got := mb.m.Move(key, to); got != ok {
			t.Fatalf("Move(%d, %d) = %v, model says %v", key, to, got, ok)
		}
	case kindClone:
		if len(f.members) == maxMembers {
			return
		}
		i := int(which) % len(f.members)
		src := f.members[i]
		c := &member{m: src.m.Clone(), model: maps.Clone(src.model)}
		f.members = append(f.members, c)
		if src.frozen {
			f.live = append(f.live, c)
		} else {
			src.frozen = true
			f.live[slices.Index(f.live, src)] = c
		}
	}
}

// check verifies that every member, frozen ancestors included, reads back
// exactly its own contents.
func (f *family) check(t testing.TB) {
	t.Helper()
	for i, mb := range f.members {
		if mb.m.Len() != len(mb.model) {
			t.Fatalf("member %d (frozen=%v): Len = %d, want %d", i, mb.frozen, mb.m.Len(), len(mb.model))
		}
		want := slices.Sorted(maps.Keys(mb.model))
		n := 0
		mb.m.Ascend(func(k, v uint16) bool {
			if n >= len(want) || k != want[n] || v != mb.model[k] {
				t.Fatalf("member %d (frozen=%v): entry %d is (%d, %d), model disagrees", i, mb.frozen, n, k, v)
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("member %d (frozen=%v): Ascend visited %d entries, want %d", i, mb.frozen, n, len(want))
		}
		for k, v := range mb.model {
			if got, ok := mb.m.Get(k); !ok || got != v {
				t.Fatalf("member %d (frozen=%v): Get(%d) = %d,%v, want %d", i, mb.frozen, k, got, ok, v)
			}
		}
		if err := mb.m.CheckInvariants(); err != nil {
			t.Fatalf("member %d (frozen=%v): %v", i, mb.frozen, err)
		}
	}
}

// TestCloneFamilyVsModel is the model-based property test of lazy path
// copying: after arbitrary Put/Delete/Move on descendants, every ancestor
// still holds exactly what it held when it was frozen.
func TestCloneFamilyVsModel(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		f := newFamily(600)
		for i := 0; i < steps; i++ {
			// Keys stay in a window twice the initial population, so about
			// half the deletes and moves hit and nodes both split and merge.
			kind := [...]uint8{kindPut, kindPut2, kindDelete, kindMove}[r.Intn(4)]
			if r.Intn(16) == 0 {
				kind = kindClone
			}
			// Half the moves land within a leaf or two of where they left,
			// like a date toggle; the rest anywhere.
			key, to := uint16(r.Intn(2400)), uint16(r.Intn(2400))
			if r.Bool() {
				to = key ^ uint16(r.Intn(64))
			}
			f.step(t, kind, uint8(r.Intn(256)), key, uint16(i), to)
			if i%2000 == 0 {
				f.check(t)
			}
		}
		f.check(t)
	}
}

// FuzzCloneFamily lets the fuzzer choose the interleaving of writes and
// clones; each operation is four input bytes: kind, tree, the low byte of
// the key, and one bit of key above seven bits of distance to Move's
// destination.
func FuzzCloneFamily(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 1, 2, 0, 4, 0, 3, 0, 0, 0, 2, 1, 6, 0})
	f.Add([]byte{})
	// Moves: to a free key nearby, onto a present key, of an absent key, onto
	// itself, and across a clone so the frozen tree must not see them.
	f.Add([]byte{4, 0, 10, 2, 4, 0, 12, 4, 4, 0, 13, 2, 4, 0, 20, 0, 3, 0, 0, 0, 4, 0, 30, 255, 4, 1, 11, 8})
	f.Add([]byte{3, 0, 0, 0, 4, 0, 0, 254, 4, 0, 198, 253, 3, 1, 0, 0, 4, 2, 2, 3, 2, 0, 127, 0, 4, 1, 127, 1})
	// Moves to the adjacent key (distance 1, the date toggle) and back, on
	// either side of a clone, over leaf slots, separators and both ends.
	f.Add([]byte{4, 0, 10, 2, 4, 0, 11, 2, 3, 0, 0, 0, 4, 1, 20, 2, 4, 0, 40, 2, 4, 1, 21, 2, 4, 0, 32, 2, 4, 0, 64, 2, 4, 0, 198, 2, 4, 0, 0, 2})
	f.Add([]byte{3, 0, 0, 0, 3, 0, 0, 0, 4, 0, 50, 2, 4, 1, 50, 2, 4, 1, 51, 2, 3, 1, 0, 0, 4, 2, 100, 2, 4, 0, 101, 2, 2, 0, 102, 0, 4, 2, 104, 2, 4, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fam := newFamily(100)
		for i := 0; i+4 <= len(data); i += 4 {
			key := uint16(data[i+2]) | uint16(data[i+3]&1)<<8
			fam.step(t, data[i], data[i+1], key, uint16(i), key^uint16(data[i+3]>>1))
		}
		fam.check(t)
	})
}

// height is the number of levels of the tree.
func height[K cmp.Ordered, V any](m *Map[K, V]) int {
	h := 1
	for n := m.root; !n.leaf(); n = n.kids[0] {
		h++
	}
	return h
}

// TestMoveEdges pins the cases of Move that a random walk reaches rarely,
// each against the same model the family tests use.
func TestMoveEdges(t *testing.T) {
	// ascending returns a one-member family holding keys 10, 20, ..., 10*n.
	ascending := func(n int) *family {
		f := newFamily(0)
		for i := 1; i <= n; i++ {
			f.step(t, kindPut, 0, uint16(10*i), uint16(i), 0)
		}
		return f
	}
	move := func(f *family, from, to uint16) { f.step(t, kindMove, 0, from, 0, to) }
	tree := func(f *family) *Map[uint16, uint16] { return f.live[0].m }

	cases := []struct {
		name     string
		n        int
		from, to uint16
		wantLen  int
	}{
		{"from absent", 100, 15, 25, 100},
		{"from absent, to present", 100, 15, 20, 100},
		{"to present", 100, 30, 500, 99},
		{"to present in the same leaf", 100, 30, 40, 99},
		{"from == to", 100, 30, 30, 100},
		{"from == to, absent", 100, 35, 35, 100},
		{"one leaf", 100, 30, 31, 100},
		{"different children of the root", 100, 30, 995, 100},
		{"from is a separator in the root", 100, 160, 161, 100},
		{"to is a separator in the root", 100, 30, 160, 99},
		{"single leaf root", 10, 30, 95, 10},
		{"single entry", 1, 10, 7, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := ascending(c.n)
			move(f, c.from, c.to)
			if got := tree(f).Len(); got != c.wantLen {
				t.Errorf("Len = %d, want %d", got, c.wantLen)
			}
			f.check(t)
		})
	}
	if m := tree(ascending(100)); m.root.keys[0] != 160 {
		t.Fatalf("the separator cases assume 160 is in the root; it holds %v", m.root.keys[:m.root.n])
	}

	t.Run("empty", func(t *testing.T) {
		f := newFamily(0)
		move(f, 1, 2)
		f.check(t)
	})

	t.Run("root grows", func(t *testing.T) {
		// Ascending inserts until the root is internal and full: the next
		// write that may insert has to split it first.
		f := newFamily(0)
		n := 0
		for m := tree(f); m.root.leaf() || m.root.n < maxKeys; n++ {
			f.step(t, kindPut, 0, uint16(10*(n+1)), uint16(n), 0)
		}
		before := height(tree(f))
		// The last leaf is the one ascending inserts fill, so it can give up
		// a key without merging and the tree keeps the level it grew. The
		// move steps over the largest key, so it cannot re-key in place.
		move(f, uint16(10*(n-1)), uint16(10*n+1))
		if got := height(tree(f)); got != before+1 {
			t.Errorf("height %d -> %d, want one more", before, got)
		}
		if got := tree(f).Len(); got != n {
			t.Errorf("Len = %d, want %d", got, n)
		}
		f.check(t)
	})

	t.Run("root collapses", func(t *testing.T) {
		// 32 ascending keys leave a root with one key over leaves of 15 and
		// 16; one delete on the right makes both minimal, so the move's
		// delete merges them and empties the root. The move steps over 30,
		// so it cannot re-key in place.
		f := ascending(32)
		f.step(t, kindDelete, 0, 320, 0, 0)
		if m := tree(f); height(m) != 2 || m.root.n != 1 || m.root.kids[0].n != minKeys || m.root.kids[1].n != minKeys {
			t.Fatalf("setup: want a one-key root over two minimal leaves")
		}
		move(f, 20, 35)
		if got := height(tree(f)); got != 1 {
			t.Errorf("height = %d, want 1", got)
		}
		f.check(t)
	})

	t.Run("near moves across a clone", func(t *testing.T) {
		// The toggle pattern on a three-level tree: every key hops a short
		// way, first on the owner of every node, then on a fresh clone of it
		// so that each hop starts from shared nodes.
		f := newFamily(5000)
		r := rng.New(11)
		for i := 0; i < 6000; i++ {
			if i == 3000 {
				f.step(t, kindClone, 0, 0, 0, 0)
			}
			from := uint16(r.Intn(10000))
			to := from + uint16(r.Intn(9)) - 4
			move(f, from, to)
			if i%97 == 0 {
				if err := tree(f).CheckInvariants(); err != nil {
					t.Fatalf("step %d, Move(%d, %d): %v", i, from, to, err)
				}
			}
		}
		f.check(t)
	})
}

// nodes returns every node of m in pre-order.
func nodes[K cmp.Ordered, V any](m *Map[K, V]) []*node[K, V] {
	var out []*node[K, V]
	var walk func(n *node[K, V])
	walk = func(n *node[K, V]) {
		out = append(out, n)
		if !n.leaf() {
			for _, c := range n.kids[:n.n+1] {
				walk(c)
			}
		}
	}
	walk(m.root)
	return out
}

// contents returns m's entries as a map.
func contents(m *Map[uint16, uint16]) map[uint16]uint16 {
	out := map[uint16]uint16{}
	m.Ascend(func(k, v uint16) bool { out[k] = v; return true })
	return out
}

// TestMoveInPlace pins Move's in-place path on a three-level tree: a move
// from a leaf key to one with no key between them stores one key and
// changes nothing else, and every other move takes the general path.
func TestMoveInPlace(t *testing.T) {
	build := func() *Map[uint16, uint16] {
		m := New[uint16, uint16]()
		for i := 1; i <= 1000; i++ {
			m.Put(uint16(10*i), uint16(i))
		}
		return m
	}
	shape := build()
	if height(shape) != 3 {
		t.Fatalf("setup: height %d, want 3", height(shape))
	}
	// sep is the root's first separator. The first leaf right of it and the
	// last leaf left of it have parents that do not bound them on that
	// side, so their slot 0 and slot n-1 are bounded by sep, two levels up.
	sep := shape.root.keys[0]
	right := shape.root.kids[1]
	for !right.leaf() {
		right = right.kids[0]
	}
	left := shape.root.kids[0]
	for !left.leaf() {
		left = left.kids[left.n]
	}
	first, last := right.keys[0], left.keys[left.n-1]
	// parentSep bounds slot 0 of the second leaf from its parent.
	parentSep := shape.root.kids[0].keys[0]
	second := shape.root.kids[0].kids[1].keys[0]

	inPlace := []struct {
		name     string
		from, to uint16
	}{
		{"inside a leaf, up", 30, 35},
		{"inside a leaf, down", 30, 21},
		{"from == to", 30, 30},
		{"slot 0, bounded by the parent", second, parentSep + 1},
		{"slot 0, bounded two levels up", first, sep + 1},
		{"slot n-1, bounded two levels up", last, sep - 1},
		{"the smallest key, unbounded below", 10, 0},
		{"the largest key, unbounded above", 10000, 65535},
	}
	for _, c := range inPlace {
		t.Run(c.name, func(t *testing.T) {
			orig := build()
			want, before := orig.Keys(), nodes(orig)
			v, _ := orig.Get(c.from)
			cl := orig.Clone()
			if !cl.Move(c.from, c.to) {
				t.Fatalf("Move(%d, %d) = false", c.from, c.to)
			}
			if !slices.Equal(orig.Keys(), want) || !slices.Equal(nodes(orig), before) {
				t.Fatal("the frozen original changed")
			}
			got := cl.Keys()
			changed := 0
			for j := range got {
				if got[j] != want[j] {
					changed++
					if want[j] != c.from || got[j] != c.to {
						t.Errorf("slot %d: %d -> %d", j, want[j], got[j])
					}
				}
			}
			wantChanged := 1
			if c.from == c.to {
				wantChanged = 0
			}
			if changed != wantChanged {
				t.Errorf("%d slots of the key order changed, want %d", changed, wantChanged)
			}
			if got, _ := cl.Get(c.to); got != v {
				t.Errorf("Get(%d) = %d, want %d", c.to, got, v)
			}
			after := nodes(cl)
			if cl.Len() != orig.Len() || height(cl) != height(orig) || len(after) != len(before) {
				t.Errorf("Len %d -> %d, height %d -> %d, nodes %d -> %d: the shape changed",
					orig.Len(), cl.Len(), height(orig), height(cl), len(before), len(after))
			}
			shared := map[*node[uint16, uint16]]bool{}
			for _, n := range before {
				shared[n] = true
			}
			copied := 0
			for _, n := range after {
				if !shared[n] {
					copied++
				}
			}
			if copied != height(orig) {
				t.Errorf("copied %d nodes, want one root-to-leaf path (%d)", copied, height(orig))
			}
			// On nodes it owns the move back copies nothing.
			if !cl.Move(c.to, c.from) || !slices.Equal(nodes(cl), after) || !slices.Equal(cl.Keys(), want) {
				t.Error("the move back was not in place")
			}
			for _, m := range []*Map[uint16, uint16]{orig, cl} {
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	general := []struct {
		name     string
		from, to uint16
	}{
		{"from is a separator", sep, sep + 1},
		{"to is present", 30, 40},
		{"a key in between", 30, 45},
		{"slot 0, below the separator two levels up", first, sep - 1},
		{"slot n-1, above the separator two levels up", last, sep + 1},
	}
	for _, c := range general {
		t.Run(c.name, func(t *testing.T) {
			orig := build()
			model := contents(orig)
			cl := orig.Clone()
			if done, _ := cl.rekey(c.from, c.to); done {
				t.Fatalf("rekey(%d, %d) re-keyed in place", c.from, c.to)
			}
			if !maps.Equal(contents(cl), model) {
				t.Fatal("a rekey that declined changed the map")
			}
			if !cl.Move(c.from, c.to) {
				t.Fatalf("Move(%d, %d) = false", c.from, c.to)
			}
			v := model[c.from]
			delete(model, c.from)
			model[c.to] = v
			if !maps.Equal(contents(cl), model) || cl.Len() != len(model) {
				t.Error("the general path disagrees with Delete + Put")
			}
			for _, m := range []*Map[uint16, uint16]{orig, cl} {
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCloneConcurrentFrozenBase is the -race test of the frozen-receiver
// contract: goroutines clone one frozen tree (and frozen trees other
// goroutines published) and mutate their clones while readers scan the base.
// Clone must not write to its receiver and no write may reach a shared node.
func TestCloneConcurrentFrozenBase(t *testing.T) {
	const keys = 3000
	base := New[int, int]()
	for i := 0; i < keys; i++ {
		base.Put(i, i)
	}

	type frozen struct {
		m     *Map[int, int]
		model map[int]int
	}
	var (
		mu   sync.Mutex
		pool = []frozen{{m: base, model: nil}} // nil model: the identity on [0, keys)
	)
	modelOf := func(f frozen) map[int]int {
		if f.model != nil {
			return maps.Clone(f.model)
		}
		out := make(map[int]int, keys)
		for i := 0; i < keys; i++ {
			out[i] = i
		}
		return out
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for round := 0; round < 6; round++ {
				mu.Lock()
				src := pool[r.Intn(len(pool))]
				mu.Unlock()
				c, model := src.m.Clone(), modelOf(src)
				for i := 0; i < 400; i++ {
					k := r.Intn(2 * keys)
					if r.Intn(2) == 0 {
						c.Put(k, -k)
						model[k] = -k
					} else {
						c.Delete(k)
						delete(model, k)
					}
				}
				if c.Len() != len(model) {
					t.Errorf("goroutine %d round %d: Len = %d, want %d", g, round, c.Len(), len(model))
				}
				for k, v := range model {
					if got, ok := c.Get(k); !ok || got != v {
						t.Errorf("goroutine %d round %d: Get(%d) = %d,%v, want %d", g, round, k, got, ok, v)
						break
					}
				}
				if err := c.CheckInvariants(); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
				}
				mu.Lock()
				pool = append(pool, frozen{m: c, model: model}) // c is frozen from here on
				mu.Unlock()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				next := 0
				base.Ascend(func(k, v int) bool {
					if k != next || v != k {
						t.Errorf("base reader: entry %d is (%d, %d)", next, k, v)
						return false
					}
					next++
					return true
				})
				if next != keys {
					t.Errorf("base reader: saw %d entries, want %d", next, keys)
				}
			}
		}()
	}
	wg.Wait()

	for _, f := range pool[1:] {
		if f.m.Len() != len(f.model) {
			t.Errorf("published tree: Len = %d, want %d", f.m.Len(), len(f.model))
		}
	}
}

// TestDeletedValuesAreCollectable checks that no removal from a node leaves a
// deleted value in a slot past its count: with in-place mutation (the direct
// engine, and every owned node of a clone) the node lives on, and one stale
// pointer would keep the value — in the benchmark an atomic part and through
// it a whole deleted composite part — reachable. CheckInvariants looks for
// the same thing slot by slot; this is the end the collector sees.
func TestDeletedValuesAreCollectable(t *testing.T) {
	type payload struct{ buf [64]byte }
	const n = 4000
	m := New[int, *payload]()
	weaks := make([]weak.Pointer[payload], n)
	// Middle-out inserts: keys grow at both ends, so splits happen on both
	// flanks of the tree.
	order := make([]int, 0, n)
	for i := 0; i < n/2; i++ {
		order = append(order, n/2+i, n/2-1-i)
	}
	for _, k := range order {
		p := &payload{}
		weaks[k] = weak.Make(p)
		m.Put(k, p)
	}
	// Delete three quarters in a scattered order: leaf deletes, predecessor
	// and successor swaps, borrows from both sides and merges all happen.
	r := rng.New(7)
	deleted := make([]bool, n)
	for _, k := range r.Perm(n)[:3*n/4] {
		if _, ok := m.Delete(k); !ok {
			t.Fatalf("Delete(%d) missed", k)
		}
		deleted[k] = true
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	pinned := 0
	for k, w := range weaks {
		if deleted[k] && w.Value() != nil {
			pinned++
		}
		if !deleted[k] && w.Value() == nil {
			t.Fatalf("live value %d was collected", k)
		}
	}
	if pinned != 0 {
		t.Errorf("%d of %d deleted values are still reachable through the live tree", pinned, 3*n/4)
	}
	runtime.KeepAlive(m)
}

// TestCheckInvariantsCatchesStaleSlots plants one stale key, value and child
// past a node's count, the three things a fixed-array node can retain.
func TestCheckInvariantsCatchesStaleSlots(t *testing.T) {
	build := func() *Map[int, *int] {
		m := New[int, *int]()
		for i := 0; i < 100; i++ {
			m.Put(i, new(int))
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, plant := range map[string]func(root *node[int, *int]){
		"key":   func(root *node[int, *int]) { l := root.kids[0]; l.keys[l.n] = 7 },
		"value": func(root *node[int, *int]) { l := root.kids[0]; l.vals[maxKeys-1] = new(int) },
		"child": func(root *node[int, *int]) { root.kids[root.n+1] = root.kids[0] },
	} {
		m := build()
		plant(m.root)
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("a stale %s slot went unnoticed", name)
		}
	}
}
