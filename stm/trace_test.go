package stm

import (
	"bytes"
	"reflect"
	"testing"
)

// traceKindSet folds an event slice into the set of kinds present.
func traceKindSet(events []TraceEvent) map[TraceKind]int {
	m := make(map[TraceKind]int)
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}

// pinDescriptor makes p create its descriptor once and hand that one back
// whenever sync.Pool has lost it: the pool drops a quarter of all Puts under
// the race detector and everything at a GC, and a re-created descriptor would
// take the recorder's next ring shard, so Event.Shard would not replay. Only
// for a single-threaded workload that never nests two transactions of the
// same pool.
func pinDescriptor[T any](p *txPool[T]) {
	mk := p.mk
	var d *T
	p.mk = func() *T {
		if d == nil {
			d = mk()
		}
		return d
	}
}

// traceEngines builds each validating engine for runTraceWorkload from the
// workload's options, with MaxRetries 1 so that injected-abort streaks
// escalate to serial mode, and with its descriptors pinned.
var traceEngines = map[string]func(EngineOptions) Engine{
	"tl2": func(o EngineOptions) Engine {
		o.MaxRetries = 1
		e := NewTL2(o)
		pinDescriptor(&e.txPool)
		pinDescriptor(&e.snapPool)
		return e
	},
	"norec": func(o EngineOptions) Engine {
		o.MaxRetries = 1
		e := NewNOrec(o)
		pinDescriptor(&e.txPool)
		pinDescriptor(&e.snapPool)
		return e
	},
	"ostm": func(o EngineOptions) Engine {
		o.MaxRetries = 1
		e := NewOSTM(o)
		pinDescriptor(&e.txPool)
		pinDescriptor(&e.snapPool)
		return e
	},
}

// runTraceWorkload drives one deterministic single-threaded mix against a
// fresh engine from mk, wired to a fresh recorder with the same fault plan
// and serial fallback on every engine: plain commits, injected aborts that
// escalate to serial mode, and snapshot transactions that restart when a
// nested commit moves the clock, sequence lock or commit serial under
// them. A single-threaded TL2 commit never validates (no other commit
// lands between its start and its stamp), so an OSTM engine sharing the
// recorder, which validates on every open, supplies the validation
// passes; own counts the events before them, the main engine's. The same
// call always produces the same event stream.
func runTraceWorkload(t *testing.T, mk func(EngineOptions) Engine) (rec *TraceRecorder, own int) {
	t.Helper()
	rec = NewTraceRecorder(1 << 12)
	plan, err := ParseFaultPlan("seed=7,abort:1/2")
	if err != nil {
		t.Fatal(err)
	}
	eng := mk(EngineOptions{Trace: rec, Faults: plan, SerialFallback: true})
	cells := make([]*Cell[int], 8)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), i)
	}
	for i := 0; i < 40; i++ {
		i := i
		err := eng.Atomic(func(tx Tx) error {
			for _, c := range cells[:4] {
				c.Get(tx)
			}
			cells[i%len(cells)].Set(tx, i)
			return nil
		})
		if err != nil {
			t.Fatalf("atomic %d: %v", i, err)
		}
	}
	// Snapshot restarts, deterministically: the snapshot fn commits a
	// write mid-attempt for its first few executions, so the re-read
	// finds the snapshot moved and the snapshot loop restarts.
	writes := 0
	err = RunReadOnly(eng, func(tx Tx) error {
		cells[0].Get(tx)
		if writes < 3 {
			writes++
			if err := eng.Atomic(func(wtx Tx) error { cells[1].Set(wtx, writes); return nil }); err != nil {
				return err
			}
		}
		cells[1].Get(tx)
		return nil
	})
	if err != nil {
		t.Fatalf("snapshot workload: %v", err)
	}
	own = rec.Len()
	ostm := NewOSTM(EngineOptions{Trace: rec})
	pinDescriptor(&ostm.txPool)
	oc := []*Cell[int]{NewCell(ostm.VarSpace(), 0), NewCell(ostm.VarSpace(), 0)}
	err = ostm.Atomic(func(tx Tx) error {
		oc[1].Set(tx, oc[0].Get(tx)+1)
		return nil
	})
	if err != nil {
		t.Fatalf("validating workload: %v", err)
	}
	return rec, own
}

// TestTraceDeterministicReplay is the acceptance pin for the recorder's
// logical clock and for the probes of the retry, serial and snapshot
// loops every engine shares: on each engine, the same single-threaded
// workload against a fresh recorder reproduces its event stream bit for
// bit and records every loop probe.
func TestTraceDeterministicReplay(t *testing.T) {
	for name, mk := range traceEngines {
		t.Run(name, func(t *testing.T) {
			recA, own := runTraceWorkload(t, mk)
			recB, _ := runTraceWorkload(t, mk)
			a, b := recA.Events(), recB.Events()
			if own == 0 {
				t.Fatal("workload recorded no events")
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two identical runs diverged: %d vs %d events", len(a), len(b))
			}
			kinds, ownKinds := traceKindSet(a), traceKindSet(a[:own])
			for _, want := range []TraceKind{TraceBegin, TraceCommit, TraceAbort, TraceSerial, TraceSnapRestart} {
				if ownKinds[want] == 0 {
					t.Errorf("no %v events recorded by %s (kinds: %v)", want, name, ownKinds)
				}
			}
			for _, want := range []TraceKind{TraceValidate, TraceLock} {
				if kinds[want] == 0 {
					t.Errorf("no %v events recorded (kinds: %v)", want, kinds)
				}
			}
			// The injected aborts must carry their cause.
			injected := 0
			for _, ev := range a[:own] {
				if ev.Kind == TraceAbort && ev.A == TraceAbortInjected {
					injected++
				}
			}
			if injected == 0 {
				t.Error("no aborts attributed to fault injection")
			}
		})
	}
}

// TestTraceVersionChainEvents drives the multi-version snapshot path on
// NOrec: a nested commit between the snapshot sample and the re-read
// forces a chain resolution (hit), and two nested commits outrun a K=2
// chain (miss + restart). Both are deterministic single-threaded.
func TestTraceVersionChainEvents(t *testing.T) {
	rec := NewTraceRecorder(0)
	eng := NewNOrec(EngineOptions{Versions: 2, Trace: rec})
	c := NewCell(eng.VarSpace(), 0)
	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	commit := func(v int) error {
		return eng.Atomic(func(tx Tx) error { c.Set(tx, v); return nil })
	}
	// One nested commit: the re-read resolves the superseded version.
	did := false
	err := eng.RunReadOnly(func(tx Tx) error {
		c.Get(tx)
		if !did {
			did = true
			if err := commit(2); err != nil {
				return err
			}
		}
		c.Get(tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two nested commits: the chain truncates past the sampled epoch.
	rounds := 0
	err = eng.RunReadOnly(func(tx Tx) error {
		c.Get(tx)
		if rounds == 0 {
			rounds++
			if err := commit(3); err != nil {
				return err
			}
			if err := commit(4); err != nil {
				return err
			}
		}
		c.Get(tx)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := traceKindSet(rec.Events())
	if kinds[TraceVersionHit] == 0 {
		t.Errorf("no version-hit events (kinds: %v)", kinds)
	}
	if kinds[TraceVersionMiss] == 0 {
		t.Errorf("no version-miss events (kinds: %v)", kinds)
	}
	if kinds[TraceSnapRestart] == 0 {
		t.Errorf("no snapshot-restart events after the chain miss (kinds: %v)", kinds)
	}
}

// TestTraceChromeRoundTrip validates the Chrome Trace Event export: every
// recorded event survives WriteChromeTrace -> ParseChromeTrace unchanged.
func TestTraceChromeRoundTrip(t *testing.T) {
	rec, _ := runTraceWorkload(t, traceEngines["tl2"])
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Events()
	if !reflect.DeepEqual(parsed, want) {
		t.Fatalf("round trip diverged: %d events in, %d out", len(want), len(parsed))
	}
}

// TestTraceRingWrap pins the flight-recorder retention contract: a ring
// past capacity overwrites its oldest events, keeps the newest, and
// accounts for the drops.
func TestTraceRingWrap(t *testing.T) {
	rec := NewTraceRecorder(64) // floors at 64 events per shard
	tap := rec.tap()
	const pushed = 200
	for i := 0; i < pushed; i++ {
		tap.note(TraceBegin, uint64(i), 0)
	}
	per := len(rec.shards[0].buf)
	events := rec.Events()
	if len(events) != per {
		t.Fatalf("retained %d events, want ring capacity %d", len(events), per)
	}
	if got, want := rec.Dropped(), uint64(pushed-per); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	if events[0].Seq != uint64(pushed-per) || events[len(events)-1].Seq != pushed-1 {
		t.Errorf("retained window [%d, %d], want [%d, %d]",
			events[0].Seq, events[len(events)-1].Seq, pushed-per, pushed-1)
	}
	rec.Reset()
	if rec.Len() != 0 || rec.Dropped() != 0 {
		t.Errorf("after Reset: Len=%d Dropped=%d, want 0, 0", rec.Len(), rec.Dropped())
	}
	// A reset recorder replays from a fresh clock and shard assignment.
	tap2 := rec.tap()
	tap2.note(TraceCommit, 1, 2)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Seq != 0 || evs[0].Shard != 0 {
		t.Errorf("first post-reset event = %+v, want Seq 0 on shard 0", evs)
	}
}
