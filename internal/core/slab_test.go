package core

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/rng"
	"repro/stm"
)

// slabProbes returns, per slab of composite part id's graph, a function
// reporting whether the collector still holds the slab, and the same for the
// committed state value of one part. Each watches one interior pointer — a
// weak pointer into an object lives exactly as long as the whole object —
// and nothing here keeps a strong one.
//
//go:noinline
func slabProbes(t *testing.T, eng stm.Engine, s *Structure, id uint64) map[string]func() bool {
	t.Helper()
	var probes map[string]func() bool
	err := eng.Atomic(func(tx stm.Tx) error {
		cp, ok := s.LookupComposite(tx, id)
		if !ok {
			t.Fatalf("composite part %d missing", id)
		}
		ap := cp.Parts[len(cp.Parts)/2]
		part, cell := weak.Make(ap), weak.Make(&ap.state)
		value := weak.Make(tx.Read(ap.state.Var()).(*AtomicPartState))
		conn, in := weak.Make(&ap.To()[0]), weak.Make(&ap.From()[0])
		probes = map[string]func() bool{
			"parts":                        func() bool { return part.Value() != nil },
			"state cells inside the parts": func() bool { return cell.Value() != nil },
			"committed state value's box":  func() bool { return value.Value() != nil },
			"connections":                  func() bool { return conn.Value() != nil },
			"incoming-edge index":          func() bool { return in.Value() != nil },
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return probes
}

// TestDeletedGraphIsCollected: a composite part's graph is three slabs, the
// parts with their state cells inside them, the connections and the
// incoming-edge index, so one pointer left behind anywhere that outlives SM2 —
// an index node's stale slot, a scratch buffer, an engine's metadata — pins
// all of a slab and not one small object. On every engine: operations read
// and write the graph of one of Build's composite parts, SM2 deletes it, and
// one collection frees all three slabs and the box of a part's committed
// state (probed after the writes, so it is the box the last commit
// published). A committed value is the only one a Var keeps, so the values
// the deletion replaced — the base assemblies' component lists, the index
// roots — pin nothing.
//
// Pooled transaction descriptors are not in the way: an engine pools a
// descriptor with its sets scrubbed and its indexes reset (stm/pool.go).
func TestDeletedGraphIsCollected(t *testing.T) {
	for _, name := range stm.Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := stm.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Build(Tiny(), 42, eng.VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			const id = 1 // Build's first composite part
			do := func(fn func(tx stm.Tx, cp *CompositePart)) {
				t.Helper()
				err := eng.Atomic(func(tx stm.Tx) error {
					cp, _ := s.LookupComposite(tx, id)
					fn(tx, cp)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			do(func(tx stm.Tx, cp *CompositePart) { // ST9/OP1-style reads
				for _, ap := range cp.Parts {
					ap.State(tx)
				}
			})
			do(func(tx stm.Tx, cp *CompositePart) { // ST10 and OP15-style writes
				for _, ap := range cp.Parts {
					ap.SwapXY(tx)
				}
				s.ToggleAtomicDate(tx, cp.Parts[0])
			})
			do(func(tx stm.Tx, _ *CompositePart) { // OP3-style scan of the date index
				s.AtomicPartsByDate(tx, MinDate, MaxDate, func(ap *AtomicPart) bool { ap.State(tx); return true })
			})
			probes := slabProbes(t, eng, s, id)
			do(func(tx stm.Tx, cp *CompositePart) { s.DeleteCompositePart(tx, cp) })
			runtime.GC()
			for slab, alive := range probes {
				if alive() {
					t.Errorf("the deleted graph's %s are still reachable", slab)
				}
			}
			runtime.KeepAlive(s)
		})
	}
}

// TestGraphSlabsHoldNoPointers pins the graph's edges as pointer-free: a
// Connection names its end points by slot and the incoming-edge index is
// int32s, so both slabs are allocated as memory the collector never scans,
// and a cycle traces no composite part's edges. A pointer (or string, slice,
// interface) field added to Connection, or a slab that goes back to
// pointers, fails here.
func TestGraphSlabsHoldNoPointers(t *testing.T) {
	var cp CompositePart
	for name, typ := range map[string]reflect.Type{
		"connection slab":     reflect.TypeOf(cp.conns).Elem(),
		"incoming-edge index": reflect.TypeOf(cp.in).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("the %s's element type %v holds a pointer", name, typ)
		}
	}
	if size := unsafe.Sizeof(Connection{}); size != 16 {
		t.Errorf("a Connection is %d bytes, want 16", size)
	}
}

// TestAtomicPartLayout pins the part slab's layout: an AtomicPart is its
// fields in 32 bytes and its 64-byte state cell, 96 bytes, so consecutive
// cells in a slab begin at two offsets into a line 32 bytes apart. Checked
// on the addresses of every part of a few Small composite parts, behind the
// allocator's header: the cell's hot 16 bytes (the box pointer and the lock
// word, stm's TestVarLayout) sit in one cache line at every slab index.
func TestAtomicPartLayout(t *testing.T) {
	if size := unsafe.Sizeof(AtomicPart{}); size != 96 {
		t.Errorf("an AtomicPart is %d bytes, want 96", size)
	}
	if off := unsafe.Offsetof(AtomicPart{}.state); off != 32 {
		t.Errorf("an AtomicPart's state cell is at offset %d, want 32", off)
	}
	s := newStructure(Small(), stm.NewVarSpace())
	r := rng.New(1)
	err := stm.NewDirect().Atomic(func(tx stm.Tx) error {
		for id := uint64(1); id <= 4; id++ {
			cp := s.BuildCompositePart(tx, r, id)
			if len(cp.Parts) != Small().NumAtomicPerComp {
				t.Fatalf("composite part %d has %d parts", id, len(cp.Parts))
			}
			for i, ap := range cp.Parts {
				hot := uintptr(unsafe.Pointer(ap.state.Var()))
				if hot/64 != (hot+15)/64 {
					t.Errorf("composite part %d, slot %d: the state cell's hot 16 bytes at %#x straddle a cache line", id, i, hot)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// hasPointers reports whether a value of type t holds anything the
// collector traces.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
