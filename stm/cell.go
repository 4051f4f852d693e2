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
// The Var is part of the cell, so a cell is one object and, like a Var, must
// not be copied: share the *Cell a constructor returns, or a pointer into a
// NewCells slab.
type Cell[T any] struct {
	v Var
}

// shallowClones holds, per cell type, the function that copies a *T by
// assignment. Generic code cannot take the value of a generic function
// without allocating a closure for it (the closure carries the type
// dictionary), and the structure has one cell per object: one function per
// type costs a map lookup in NewCell and no memory per cell.
var shallowClones sync.Map // reflect.Type -> CloneFunc

func shallowCloneFor[T any]() CloneFunc {
	t := reflect.TypeFor[T]()
	f, ok := shallowClones.Load(t)
	if !ok {
		f, _ = shallowClones.LoadOrStore(t, CloneFunc(func(v any) any {
			c := *v.(*T)
			return &c
		}))
	}
	return f.(CloneFunc)
}

// NewCell allocates a cell holding init, whose private copies are made by
// assignment.
func NewCell[T any](s *VarSpace, init T) *Cell[T] {
	c := new(Cell[T])
	s.initVar(&c.v, &init, shallowCloneFor[T]())
	return c
}

// NewCells allocates one cell per element of inits, like NewCell, in a single
// slab: for objects that are created together and die together. The slab is
// one allocation, so a pointer to any one of its cells keeps all of them —
// and every value they hold — reachable.
func NewCells[T any](s *VarSpace, inits []T) []Cell[T] {
	cells := make([]Cell[T], len(inits))
	clone := shallowCloneFor[T]()
	for i := range cells {
		init := inits[i]
		s.initVar(&cells[i].v, &init, clone)
	}
	return cells
}

// NewCellClone allocates a cell whose private copies are made by clone.
func NewCellClone[T any](s *VarSpace, init T, clone func(T) T) *Cell[T] {
	c := new(Cell[T])
	s.initVar(&c.v, &init, func(v any) any {
		cp := clone(*v.(*T))
		return &cp
	})
	return c
}

// Var exposes the underlying Var (for debug naming or advanced use).
func (c *Cell[T]) Var() *Var { return &c.v }

// Get returns the cell's value in tx. The result must not be mutated.
func (c *Cell[T]) Get(tx Tx) T {
	return *tx.Read(&c.v).(*T)
}

// Set replaces the cell's value in tx.
func (c *Cell[T]) Set(tx Tx, val T) {
	tx.Write(&c.v, &val)
}

// keep is the callback Mut hands to Tx.Update. It captures nothing, so
// passing it through the Tx interface allocates nothing.
func keep(v any) any { return v }

// mutTx is implemented by this package's read-write descriptors. mut(v) is
// Update(v, keep) followed by Read(v) — the same read-set join, clone, Stats
// increments and abort checks — with one write-set lookup where the two
// calls make two.
type mutTx interface {
	mut(v *Var) any
}

// Mut returns tx's private copy of the cell's value for mutation in place,
// making the copy (per the cell's clone function) if this is the
// transaction's first write to the cell. The pointer is valid until the
// transaction ends. Under the direct engine there is no copy: the pointer is
// to the live value. A Tx of another package (a wrapper) is asked for the
// two calls mut stands for.
func (c *Cell[T]) Mut(tx Tx) *T {
	if m, ok := tx.(mutTx); ok {
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
