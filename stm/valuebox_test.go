package stm

import (
	"testing"
	"unsafe"
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
