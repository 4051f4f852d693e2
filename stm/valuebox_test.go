package stm

import (
	"runtime"
	"testing"
	"unsafe"
	"weak"
)

// inItsBox reports whether the value b publishes is the one allocated with
// it, the v of a valueBox[T] that starts at b. It compares addresses and
// converts no pointer, so a plain box (a smaller allocation) is safe to ask.
func inItsBox[T any](b *box) bool {
	p, ok := b.val.(*T)
	var vb valueBox[T]
	return ok && uintptr(unsafe.Pointer(p)) == uintptr(unsafe.Pointer(b))+unsafe.Offsetof(vb.v)
}

// TestCommittedValueInsideItsBox: on each transactional engine a cell's
// committed value shares one allocation with the box that publishes it —
// after its constructor, after a first write through Mut (the private copy
// is the box commit publishes), after Set, and for a NewCellClone cell after
// Update. A plain Write of a *T the caller allocated is the one value
// published in a box of its own.
func TestCommittedValueInsideItsBox(t *testing.T) {
	type point struct{ X, Y, Date int }
	for _, name := range []string{"tl2", "norec", "ostm"} {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			space := eng.VarSpace()
			c := NewCell(space, point{1, 2, 3})
			list := NewCellClone(space, []int{1, 2, 3}, CloneSlice[int])
			var embedded struct {
				id   uint64
				cell Cell[point]
			}
			InitCell(space, &embedded.cell, point{4, 5, 6})
			check := func(step string) {
				t.Helper()
				for label, ok := range map[string]bool{
					"cell":          inItsBox[point](c.v.cur.Load()),
					"clone cell":    inItsBox[[]int](list.v.cur.Load()),
					"embedded cell": inItsBox[point](embedded.cell.v.cur.Load()),
				} {
					if !ok {
						t.Errorf("after %s: the %s's committed value is not inside its box", step, label)
					}
				}
				for _, v := range []*Var{&c.v, &list.v, &embedded.cell.v} {
					if v.own.loc.Load() != nil {
						t.Fatalf("after %s: a committed write left a locator installed", step)
					}
				}
			}
			atomic := func(fn func(tx Tx)) {
				t.Helper()
				if err := eng.Atomic(func(tx Tx) error { fn(tx); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			check("the constructors")
			atomic(func(tx Tx) {
				c.Mut(tx).Date++
				(*list.Mut(tx))[0] = 10
				embedded.cell.Mut(tx).X++
			})
			check("Mut")
			atomic(func(tx Tx) {
				c.Set(tx, point{7, 8, 9})
				list.Set(tx, []int{4})
				embedded.cell.Mut(tx).Y++
				embedded.cell.Set(tx, point{0, 0, 1}) // Set after Mut: the Set's box
			})
			check("Set")
			atomic(func(tx Tx) {
				list.Update(tx, func(s []int) []int { return append(s, 5) })
				c.Set(tx, point{})
				c.Mut(tx).X = 11 // Mut after Set edits the Set's value in its box
			})
			check("Update and Mut after Set")
			if got := atomicGet(t, eng, c); got != (point{X: 11}) {
				t.Errorf("cell reads %+v, want {X:11}", got)
			}

			atomic(func(tx Tx) { tx.Write(&c.v, &point{X: 12}) })
			if inItsBox[point](c.v.cur.Load()) {
				t.Error("a plain Write's value was published inside a valueBox")
			}
			if got := atomicGet(t, eng, c); got != (point{X: 12}) {
				t.Errorf("cell reads %+v after a plain Write, want {X:12}", got)
			}
		})
	}
}

func atomicGet[T any](t *testing.T, eng Engine, c *Cell[T]) T {
	t.Helper()
	var v T
	if err := eng.Atomic(func(tx Tx) error { v = c.Get(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestNOrecVersionsHeldValuePinsAtMostK: under versions=K a committed value
// is inside its version (a vbox), and the version links up to K-1 older
// ones, so a *T a reader holds keeps at most K boxes alive after everything
// else has let go — K when it is the head's value, whose chain is whole, and
// one when it is a value K or more commits old, whose chain commit
// truncation has cut.
func TestNOrecVersionsHeldValuePinsAtMostK(t *testing.T) {
	for _, k := range []int{2, 4} {
		for _, tc := range []struct {
			label string
			held  int // which of the 3k commits' values is held, 0-based
			want  int
		}{{"head", 3*k - 1, k}, {"old", k, 1}} {
			held, boxes := holdNOrecValue(t, k, tc.held)
			runtime.GC()
			alive := 0
			for _, b := range boxes {
				if b.Value() != nil {
					alive++
				}
			}
			if boxes[tc.held].Value() == nil {
				t.Errorf("K=%d, %s: the held value's box was collected", k, tc.label)
			}
			if alive > k || alive != tc.want {
				t.Errorf("K=%d, %s: a held *T keeps %d boxes alive, want %d (at most K)", k, tc.label, alive, tc.want)
			}
			runtime.KeepAlive(held)
		}
	}
}

// holdNOrecValue commits 3k writes of one cell on a versions=k NOrec engine
// and returns the value the held-th commit published, read as a *T, with a
// weak pointer to every commit's version. Nothing else it made stays
// reachable.
//
//go:noinline
func holdNOrecValue(t *testing.T, k, held int) (*[4]int, []weak.Pointer[vbox]) {
	eng := NewNOrec(EngineOptions{Versions: k})
	c := NewCell(eng.VarSpace(), [4]int{})
	var boxes []weak.Pointer[vbox]
	var p *[4]int
	for i := 0; i < 3*k; i++ {
		err := eng.Atomic(func(tx Tx) error {
			c.Mut(tx)[0] = i
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		b := c.v.ver.Load()
		if &b.box != c.v.cur.Load() {
			t.Fatal("the chain's head is not the box the Var publishes")
		}
		var vb versionedValueBox[[4]int]
		if p, _ := b.val.(*[4]int); uintptr(unsafe.Pointer(p)) != uintptr(unsafe.Pointer(b))+unsafe.Offsetof(vb.v) {
			t.Fatal("a versioned commit's value is not inside its version")
		}
		boxes = append(boxes, weak.Make(b))
		if i == held {
			p = b.val.(*[4]int)
		}
	}
	if got := c.v.ver.Load().prev.Load(); got == nil {
		t.Fatal("versions=K kept no older version")
	}
	return p, boxes
}
