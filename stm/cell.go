package stm

import (
	"reflect"
	"sync"
)

// Cell is a typed wrapper around a Var. It is the recommended way to declare
// shared state: the type parameter documents what the cell holds and removes
// type assertions from call sites.
//
// The Var holds a *T. A committed *T is immutable; a transaction that writes
// the cell gets one private copy of the value on its first write (Mut) and
// edits that copy in place from then on, so a write costs one copy on first
// touch and nothing afterwards. The copy is a plain assignment for cells
// made by NewCell, which is enough for T with value semantics (numbers,
// strings, structs without reference fields). For T with reference semantics
// that is mutated through Mut or Update (slices, maps, pointers to mutable
// structs), use NewCellClone and provide the copy.
//
// Every value a cell publishes shares one allocation with the box that
// publishes it: the constructors, the private copy and Set each make the
// value inside a box, and a commit publishes that box as it stands. So a *T
// the cell hands out (Mut's, or a Var read's) keeps its box alive, and under
// NOrec's versions=K the box's chain of older versions too, at most K boxes.
//
// The Var is part of the cell, so a cell is one object and, like a Var, must
// not be copied: share the *Cell a constructor returns, a pointer into a
// NewCells slab, or the address of a cell InitCell set up inside another
// object.
type Cell[T any] struct {
	v Var
}

// valueBox is a box and the value it publishes in one allocation: box.val is
// a *T pointing at v. It is 16 bytes plus the value.
type valueBox[T any] struct {
	box
	v T
}

// versionedValueBox is valueBox for NOrec under versions > 1: the box heads a
// vbox, whose commit stamp and older-version link share the allocation.
type versionedValueBox[T any] struct {
	vbox
	v T
}

// newValueBox returns a fresh, unpublished box holding val: a valueBox, or,
// when versioned, a versionedValueBox returned as vb as well.
func newValueBox[T any](val T, versioned bool) (*box, *vbox) {
	if versioned {
		vb := &versionedValueBox[T]{v: val}
		vb.val = &vb.v
		return &vb.box, &vb.vbox
	}
	b := &valueBox[T]{v: val}
	b.val = &b.v
	return &b.box, nil
}

// shallowClones holds, per cell type, the clone that copies a *T by
// assignment into a new valueBox. Generic code cannot take the value of a
// generic function without allocating a closure for it (the closure carries
// the type dictionary), and the structure has one cell per object: one
// function per type costs a map lookup in InitCell and no memory per cell.
var shallowClones sync.Map // reflect.Type -> boxClone

func shallowCloneFor[T any]() boxClone {
	t := reflect.TypeFor[T]()
	f, ok := shallowClones.Load(t)
	if !ok {
		f, _ = shallowClones.LoadOrStore(t, boxClone(func(v any, versioned bool) (*box, *vbox) {
			return newValueBox(*v.(*T), versioned)
		}))
	}
	return f.(boxClone)
}

// NewCell allocates a cell holding init, whose private copies are made by
// assignment.
func NewCell[T any](s *VarSpace, init T) *Cell[T] {
	c := new(Cell[T])
	InitCell(s, c, init)
	return c
}

// InitCell makes the zero cell at c — a field of an object that holds its
// own state, say — a cell of s holding init, like NewCell but without
// allocating the cell. The one allocation is the value's box. c must not be
// used before the call, nor copied after it.
func InitCell[T any](s *VarSpace, c *Cell[T], init T) {
	b, _ := newValueBox(init, false)
	s.initVar(&c.v, b, shallowCloneFor[T]())
}

// NewCells allocates one cell per element of inits, like NewCell, in a single
// slab: for objects that are created together and die together. The slab is
// one allocation, so a pointer to any one of its cells keeps all of them —
// and every value they hold — reachable.
func NewCells[T any](s *VarSpace, inits []T) []Cell[T] {
	cells := make([]Cell[T], len(inits))
	clone := shallowCloneFor[T]()
	for i := range cells {
		b, _ := newValueBox(inits[i], false)
		s.initVar(&cells[i].v, b, clone)
	}
	return cells
}

// NewCellClone allocates a cell whose private copies are made by clone.
func NewCellClone[T any](s *VarSpace, init T, clone func(T) T) *Cell[T] {
	c := new(Cell[T])
	b, _ := newValueBox(init, false)
	s.initVar(&c.v, b, func(v any, versioned bool) (*box, *vbox) {
		return newValueBox(clone(*v.(*T)), versioned)
	})
	return c
}

// Var exposes the underlying Var (for debug naming or advanced use).
func (c *Cell[T]) Var() *Var { return &c.v }

// Get returns the cell's value in tx. The result must not be mutated.
func (c *Cell[T]) Get(tx Tx) T {
	return *tx.Read(&c.v).(*T)
}

// Set replaces the cell's value in tx. On this package's descriptors the new
// value is made in the box its commit publishes.
func (c *Cell[T]) Set(tx Tx, val T) {
	if w, ok := tx.(cellTx); ok {
		b, vb := newValueBox(val, w.versioned())
		w.set(&c.v, b, vb)
		return
	}
	write(tx, &c.v, val)
}

// write is Set through a Tx of another package. It is a function of its own
// so that the val it moves to the heap is not Set's parameter, which would
// then escape on every call.
func write[T any](tx Tx, v *Var, val T) {
	tx.Write(v, &val)
}

// keep is the callback Mut hands to Tx.Update. It captures nothing, so
// passing it through the Tx interface allocates nothing.
func keep(v any) any { return v }

// cellTx is implemented by this package's read-write descriptors. mut(v) is
// Update(v, keep) followed by Read(v) — the same read-set join, clone, Stats
// increments and abort checks — with one write-set lookup where the two
// calls make two. set(v, b, vb) is Write(v, b.val) that publishes b itself
// at commit, not a fresh box; versioned reports whether the descriptor's
// commits publish vboxes (NOrec under versions > 1), in which case b heads
// vb.
type cellTx interface {
	mut(v *Var) any
	set(v *Var, b *box, vb *vbox)
	versioned() bool
}

// Mut returns tx's private copy of the cell's value for mutation in place,
// making the copy (per the cell's clone function) if this is the
// transaction's first write to the cell. The pointer is valid until the
// transaction ends. Under the direct engine there is no copy: the pointer is
// to the live value. A Tx of another package (a wrapper) is asked for the
// two calls mut stands for.
func (c *Cell[T]) Mut(tx Tx) *T {
	if m, ok := tx.(cellTx); ok {
		return m.mut(&c.v).(*T)
	}
	tx.Update(&c.v, keep)
	return tx.Read(&c.v).(*T)
}

// Update applies f to the cell's value and stores the result:
// *p = f(*p) on the pointer Mut returns.
func (c *Cell[T]) Update(tx Tx, f func(T) T) {
	p := c.Mut(tx)
	*p = f(*p)
}

// CloneSlice is a convenience clone function for slice-valued cells: it
// copies the slice header and backing array (shallowly — elements are
// shared, which is correct when elements are pointers to objects that carry
// their own cells).
func CloneSlice[E any](s []E) []E {
	if s == nil {
		return nil
	}
	out := make([]E, len(s))
	copy(out, s)
	return out
}

// CloneMap is a convenience clone function for map-valued cells (shallow in
// the values, like CloneSlice).
func CloneMap[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return nil
	}
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
