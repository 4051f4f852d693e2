package btree

import (
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

// family drives Put, Delete and Clone over a growing set of related trees —
// chains of clones and several clones of one frozen tree — the way the STM
// does: only trees that were never cloned are mutated.
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

// step applies one operation: kind selects Put (twice as likely), Delete or
// Clone, which selects the tree.
func (f *family) step(kind, which uint8, key, val uint16) {
	switch kind % 4 {
	case 0, 1:
		t := f.live[int(which)%len(f.live)]
		t.m.Put(key, val)
		t.model[key] = val
	case 2:
		t := f.live[int(which)%len(f.live)]
		t.m.Delete(key)
		delete(t.model, key)
	case 3:
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
// copying: after arbitrary Put/Delete on descendants, every ancestor still
// holds exactly what it held when it was frozen.
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
			// half the deletes hit and nodes both split and merge.
			kind := uint8(r.Intn(3)) // Put, Put or Delete
			if r.Intn(16) == 0 {
				kind = 3 // Clone
			}
			f.step(kind, uint8(r.Intn(256)), uint16(r.Intn(2400)), uint16(i))
			if i%2000 == 0 {
				f.check(t)
			}
		}
		f.check(t)
	}
}

// FuzzCloneFamily lets the fuzzer choose the interleaving of writes and
// clones; each operation is four input bytes.
func FuzzCloneFamily(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 1, 2, 0, 4, 0, 3, 0, 0, 0, 2, 1, 6, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fam := newFamily(100)
		for i := 0; i+4 <= len(data); i += 4 {
			key := uint16(data[i+2]) | uint16(data[i+3]&1)<<8
			fam.step(data[i], data[i+1], key, uint16(i))
		}
		fam.check(t)
	})
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

// TestDeletedValuesAreCollectable checks that no shrink of a node leaves a
// deleted value in the slack of a slice: with in-place mutation (the direct
// engine, and every owned node of a clone) the node lives on, and one stale
// pointer would keep the value — in the benchmark an atomic part and through
// it a whole deleted composite part — reachable.
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
