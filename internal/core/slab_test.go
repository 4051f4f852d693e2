package core

import (
	"runtime"
	"testing"
	"weak"

	"repro/stm"
)

// slabProbes returns, per slab of composite part id's graph, a function
// reporting whether the collector still holds the slab. Each watches one
// interior pointer — a weak pointer into an object lives exactly as long as
// the whole object — and nothing here keeps a strong one.
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
		part, cell, conn := weak.Make(ap), weak.Make(ap.state), weak.Make(ap.To[0])
		to, from := weak.Make(&ap.To[0]), weak.Make(&ap.From[0])
		probes = map[string]func() bool{
			"parts":       func() bool { return part.Value() != nil },
			"state cells": func() bool { return cell.Value() != nil },
			"connections": func() bool { return conn.Value() != nil },
			"To lists":    func() bool { return to.Value() != nil },
			"From lists":  func() bool { return from.Value() != nil },
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return probes
}

// TestDeletedGraphIsCollected: a composite part's graph is five slabs, so one
// pointer left behind anywhere that outlives SM2 — an index node's stale
// slot, a scratch buffer, an engine's metadata — now pins all of a slab and
// not one small object. On every engine: operations read and write the graph
// of one of Build's composite parts, SM2 deletes it, and one collection frees
// all five slabs. A committed value is the only one a Var keeps, so the
// values the deletion replaced — the base assemblies' component lists, the
// index roots — pin nothing.
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
			probes := slabProbes(t, eng, s, id)
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

// TestAdaptiveTransferReachesSlabCells: stm.Adaptive finds the Vars to move
// to a new engine generation through weak pointers, and a slab cell's is a
// pointer into the slab. Every cell of a built structure is given a version
// by the first generation; after a collection and a swap to a generation
// whose clock starts again from zero, a cell the transfer missed would still
// carry that version and be unreadable ("version too new") until the
// deadline. All of them must read back, through object -> striped -> object.
func TestAdaptiveTransferReachesSlabCells(t *testing.T) {
	spec := func(s string) stm.EngineSpec {
		t.Helper()
		sp, err := stm.ParseEngineSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	a, err := stm.NewAdaptive(spec("tl2:deadline=5s"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(Tiny(), 42, a.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	states := func() map[uint64]AtomicPartState {
		t.Helper()
		out := map[uint64]AtomicPartState{}
		err := a.Atomic(func(tx stm.Tx) error {
			clear(out)
			s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
				out[id] = ap.State(tx)
				return true
			})
			return s.CheckInvariants(tx)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := states()
	if len(want) != s.P.NumCompParts*s.P.NumAtomicPerComp {
		t.Fatalf("%d atomic parts, want %d", len(want), s.P.NumCompParts*s.P.NumAtomicPerComp)
	}
	for _, hop := range []string{"tl2:deadline=5s", "tl2:striped=64,deadline=5s", "tl2:deadline=5s"} {
		for range 2 { // two swaps: every cell versioned, every state as it was
			err := a.Atomic(func(tx stm.Tx) error {
				s.Idx.AtomicByID.Ascend(tx, func(_ uint64, ap *AtomicPart) bool {
					ap.SwapXY(tx)
					return true
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		if err := a.Reconfigure(spec(hop)); err != nil {
			t.Fatal(err)
		}
		got := states()
		for id, st := range want {
			if got[id] != st {
				t.Fatalf("after the swap to %s: atomic part %d reads %+v, want %+v", hop, id, got[id], st)
			}
		}
	}
}
