package stm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// adaptiveHops is the reconfiguration itinerary the transfer tests walk:
// every engine protocol, both orec granularities, and a multi-version
// generation, so state survives crossing every axis the runtime can
// retune.
var adaptiveHops = []EngineSpec{
	mustSpec("tl2"),
	mustSpec("norec:versions=4"),
	mustSpec("tl2:striped=64,coalesce"),
	mustSpec("ostm"),
	mustSpec("norec:gc"),
}

// TestAdaptiveStateTransfer walks the full itinerary, writing a distinct
// generation marker before each hop and checking after it that every Var
// still holds exactly the committed value — values survive protocol,
// granularity and version-depth changes.
func TestAdaptiveStateTransfer(t *testing.T) {
	const cellsN = 32
	a, err := NewAdaptive(mustSpec("tl2"))
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]*Cell[int], cellsN)
	for i := range cells {
		cells[i] = NewCell(a.VarSpace(), i)
	}
	check := func(gen int) {
		t.Helper()
		if err := a.Atomic(func(tx Tx) error {
			for i, c := range cells {
				if got, want := c.Get(tx), 1000*gen+i; got != want {
					t.Errorf("gen %d cell %d = %d, want %d", gen, i, got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("gen %d check: %v", gen, err)
		}
		if err := RunReadOnly(Engine(a), func(tx Tx) error {
			for i, c := range cells {
				if got, want := c.Get(tx), 1000*gen+i; got != want {
					t.Errorf("gen %d snapshot cell %d = %d, want %d", gen, i, got, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("gen %d snapshot check: %v", gen, err)
		}
	}
	check(0)
	for gen, hop := range adaptiveHops {
		if err := a.Atomic(func(tx Tx) error {
			for i, c := range cells {
				c.Set(tx, 1000*(gen+1)+i)
			}
			return nil
		}); err != nil {
			t.Fatalf("write gen %d: %v", gen+1, err)
		}
		if err := a.Reconfigure(hop); err != nil {
			t.Fatalf("Reconfigure(%s): %v", hop, err)
		}
		if want := "adaptive(" + hop.Name + ")"; a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
		check(gen + 1)
	}
	if got, want := a.Stats().Reconfigurations, uint64(len(adaptiveHops)); got != want {
		t.Errorf("Reconfigurations = %d, want %d", got, want)
	}
}

// TestAdaptiveTransferTruncatesChains: a multi-version generation grows
// prev chains; the swap must rebuild every Var as a single fresh head at
// wv = 0 (the NewVar timestamp), or the next generation would interpret a
// retired engine's version timestamps against its own clock.
func TestAdaptiveTransferTruncatesChains(t *testing.T) {
	a, err := NewAdaptive(mustSpec("tl2:versions=4"))
	if err != nil {
		t.Fatal(err)
	}
	v := a.VarSpace().NewVar(0, nil)
	for i := 1; i <= 8; i++ {
		if err := a.Atomic(func(tx Tx) error { tx.Write(v, i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if b := v.cur.Load(); b.prev.Load() == nil {
		t.Fatal("precondition: no version chain grew under Versions=4")
	}
	if err := a.Reconfigure(mustSpec("norec")); err != nil {
		t.Fatal(err)
	}
	b := v.cur.Load()
	if b.prev.Load() != nil {
		t.Error("version chain survived the swap; want a truncated fresh head")
	}
	if b.wv != 0 {
		t.Errorf("transferred head wv = %d, want 0 (older than every snapshot)", b.wv)
	}
	if got, ok := b.val.(int); !ok || got != 8 {
		t.Errorf("transferred value = %v, want 8", b.val)
	}
}

// TestAdaptiveOrecRepointing: after a swap the Vars' orecs must belong to
// the NEW engine's table — striped coalescing indexes the engine's own
// group words by orec id, so stale orecs would corrupt the commit path —
// and carry nothing of the retired engine's. Both directions (object ->
// striped -> object) plus new Vars allocated after each swap are checked,
// over standalone Vars and a NewCells slab, with OSTM as the first
// generation so the inline records hold locators and reader sets when the
// transfer resets them.
func TestAdaptiveOrecRepointing(t *testing.T) {
	a, err := NewAdaptive(mustSpec("ostm:visible"))
	if err != nil {
		t.Fatal(err)
	}
	vars := []*Var{a.VarSpace().NewVar(0, nil)}
	slab := NewCells(a.VarSpace(), make([]int, 4))
	for i := range slab {
		vars = append(vars, slab[i].Var())
	}
	writeAll := func() {
		t.Helper()
		err := a.Atomic(func(tx Tx) error {
			for _, v := range vars {
				if v.clone == nil { // a plain Var; the slab's hold *int
					tx.Write(v, tx.Read(v).(int)+1)
				}
			}
			for i := range slab {
				slab[i].Update(tx, func(n int) int { return n + 1 })
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	zeroed := func(o *orec) bool {
		return o.meta.Load() == 0 && o.lastWriter.Load() == 0 && o.loc.Load() == nil &&
			o.readers.Load() == nil && o.wb.Load() == 0
	}
	writeAll()
	// A committed write retires its locators; an aborted one leaves them to
	// the next acquirer, so one is still in the inline record at the swap.
	errStop := errors.New("stop")
	if err := a.Atomic(func(tx Tx) error { slab[0].Set(tx, -1); return errStop }); !errors.Is(err, errStop) {
		t.Fatalf("aborted write: %v, want %v", err, errStop)
	}
	if v := vars[1]; v.own.loc.Load() == nil {
		t.Fatal("precondition: an aborted OSTM write left no locator in the inline record")
	}

	if err := a.Reconfigure(mustSpec("tl2:striped=64,coalesce")); err != nil {
		t.Fatal(err)
	}
	cur := a.cur.Load().eng.VarSpace()
	vars = append(vars, a.VarSpace().NewVar(0, nil)) // post-swap NewVar
	for _, v := range vars {
		if v.orc != cur.orecs.stripeFor(v.id) {
			t.Errorf("Var %d: orec not in the striped generation's table", v.id)
		}
		if !zeroed(&v.own) {
			t.Errorf("Var %d: inline record kept the object generation's metadata", v.id)
		}
	}
	// The coalescing commit path must actually work against the
	// transferred orecs.
	writeAll()

	if err := a.Reconfigure(mustSpec("tl2")); err != nil {
		t.Fatal(err)
	}
	vars = append(vars, a.VarSpace().NewVar(0, nil))
	for _, v := range vars {
		if v.orc != &v.own || v.own.id != v.id {
			t.Errorf("Var %d: orc = %p (id %d), want its own record %p", v.id, v.orc, v.orc.id, &v.own)
		}
		if !zeroed(&v.own) {
			t.Errorf("Var %d: inline record not zeroed on return to object granularity", v.id)
		}
	}
	writeAll()
	if v := vars[0]; v.own.meta.Load() == 0 {
		t.Error("a TL2 commit under object granularity did not version the inline record")
	}
}

// TestVarTrackerFollowsSlabCells: the tracker's weak pointers to the cells
// of a NewCells slab point into the slab, and a weak pointer into an object
// lives as long as the object. A live slab must come back from snapshotVars
// cell by cell after a collection — a transfer that missed one would leave it
// with the retired engine's metadata — a slab reachable through one cell only
// must come back whole, and a dropped slab must be compacted away.
func TestVarTrackerFollowsSlabCells(t *testing.T) {
	a, err := NewAdaptive(mustSpec("tl2"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	live := NewCells(a.VarSpace(), make([]int, n))
	oneCell := &NewCells(a.VarSpace(), make([]int, n))[n/2]
	firstDropped := NewCells(a.VarSpace(), make([]int, n))[0].Var().ID()
	runtime.GC()

	tracked := map[*Var]bool{}
	for _, v := range a.space.track.snapshotVars() {
		tracked[v] = true
		if v.id >= firstDropped {
			t.Errorf("Var %d of the dropped slab is still tracked", v.id)
		}
	}
	if len(tracked) != 2*n {
		t.Errorf("%d Vars tracked, want the %d of the two reachable slabs", len(tracked), 2*n)
	}
	for i := range live {
		if !tracked[live[i].Var()] {
			t.Errorf("cell %d of the live slab is not tracked", i)
		}
	}
	if !tracked[oneCell.Var()] {
		t.Error("the cell that keeps the second slab alive is not tracked")
	}
}

// TestAdaptiveQuiesceStallEscalates choreographs a stuck drain: one
// transaction parks in user code, Reconfigure's drain hits a short
// deadline and must return ErrQuiesceStalled promptly (never hang), the
// runtime must keep admitting transactions in serial degradation, and
// once the straggler finishes a retried Reconfigure must succeed and
// degradation must lift.
func TestAdaptiveQuiesceStallEscalates(t *testing.T) {
	a, err := NewAdaptive(mustSpec("norec"))
	if err != nil {
		t.Fatal(err)
	}
	a.SetDrainDeadline(20 * time.Millisecond)
	c := NewCell(a.VarSpace(), 0)

	parked := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- a.Atomic(func(tx Tx) error {
			c.Get(tx)
			once.Do(func() { close(parked) })
			<-release
			return nil
		})
	}()
	<-parked

	start := time.Now()
	err = a.Reconfigure(mustSpec("tl2"))
	if !errors.Is(err, ErrQuiesceStalled) {
		t.Fatalf("Reconfigure with a parked transaction: err = %v, want ErrQuiesceStalled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stalled drain took %v; the deadline did not bound it", d)
	}
	s := a.Stats()
	if s.ReconfigStalls != 1 || s.Reconfigurations != 0 {
		t.Fatalf("after stall: stalls = %d, reconfigs = %d; want 1, 0", s.ReconfigStalls, s.Reconfigurations)
	}
	if name := a.Current().Name; name != "norec" {
		t.Fatalf("stalled swap changed the engine to %q", name)
	}

	// Serial degradation: new transactions are admitted while the
	// straggler still holds the gate count.
	if !a.gate.degraded.Load() {
		t.Error("gate not degraded after a stalled drain")
	}
	if err := a.Atomic(func(tx Tx) error { c.Update(tx, func(v int) int { return v + 1 }); return nil }); err != nil {
		t.Fatalf("degraded-mode transaction: %v", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked transaction: %v", err)
	}
	if err := a.Reconfigure(mustSpec("tl2")); err != nil {
		t.Fatalf("retried Reconfigure after drain cleared: %v", err)
	}
	if a.gate.degraded.Load() {
		t.Error("degradation did not lift after the gate went idle")
	}
	if err := a.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 1 {
			t.Errorf("value after stall episode = %d, want 1", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s = a.Stats()
	if s.ReconfigStalls != 1 || s.Reconfigurations != 1 {
		t.Errorf("final: stalls = %d, reconfigs = %d; want 1, 1", s.ReconfigStalls, s.Reconfigurations)
	}
}

// TestAdaptiveStatsMonotoneAcrossSwaps: the wrapper folds retired
// generations into a base, so cumulative counters never go backwards when
// an engine (and its from-zero counters) is replaced.
func TestAdaptiveStatsMonotoneAcrossSwaps(t *testing.T) {
	a, err := NewAdaptive(mustSpec("tl2"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCell(a.VarSpace(), 0)
	var wantCommits uint64
	prev := a.Stats()
	for gen, hop := range adaptiveHops {
		for i := 0; i < 10; i++ {
			if err := a.Atomic(func(tx Tx) error { c.Update(tx, func(v int) int { return v + 1 }); return nil }); err != nil {
				t.Fatal(err)
			}
			wantCommits++
		}
		if err := a.Reconfigure(hop); err != nil {
			t.Fatalf("hop %d: %v", gen, err)
		}
		s := a.Stats()
		if s.Commits < prev.Commits || s.Writes < prev.Writes {
			t.Fatalf("hop %d: counters went backwards: %+v -> %+v", gen, prev, s)
		}
		prev = s
	}
	if got := a.Stats().Commits; got != wantCommits {
		t.Errorf("Commits = %d, want %d (base fold lost or double-counted)", got, wantCommits)
	}
}

// TestAdaptiveChaosSwapBankInvariant is the mid-run engine-switch chaos
// battery (run under -race in CI): concurrent transfers and snapshot
// readers under the chaos-storm fault plan while a reconfiguration loop
// walks the itinerary. Opacity must hold across every swap — each balance
// sum observed, mid-run and final, is conserved.
func TestAdaptiveChaosSwapBankInvariant(t *testing.T) {
	const (
		accounts = 16
		initial  = 100
		writers  = 3
		readers  = 2
	)
	a, err := NewAdaptive(mustSpec("norec:faults=seed=7,precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,abort:1/24"))
	if err != nil {
		t.Fatal(err)
	}
	iters := stressIters(t, 400)
	cells := make([]*Cell[int], accounts)
	for i := range cells {
		cells[i] = NewCell(a.VarSpace(), initial)
	}
	total := accounts * initial

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed uint64) {
			defer writerWG.Done()
			x := seed*2654435761 + 12345
			next := func(n int) int {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return int(x % uint64(n))
			}
			for i := 0; i < iters; i++ {
				from, to := next(accounts), next(accounts)
				if err := a.Atomic(func(tx Tx) error {
					cells[from].Update(tx, func(v int) int { return v - 1 })
					cells[to].Update(tx, func(v int) int { return v + 1 })
					return nil
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sum := 0
				if err := a.RunReadOnly(func(tx Tx) error {
					sum = 0
					for _, c := range cells {
						sum += c.Get(tx)
					}
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if sum != total {
					t.Errorf("mid-run sum = %d, want %d (opacity violated across a swap)", sum, total)
					return
				}
			}
		}()
	}

	// The reconfiguration loop: walk the itinerary until the writers
	// finish. Stalls are fine (retried on the next lap) — errors other
	// than a stall are not.
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hop := adaptiveHops[i%len(adaptiveHops)]
			if err := a.Reconfigure(hop); err != nil && !errors.Is(err, ErrQuiesceStalled) {
				t.Errorf("Reconfigure(%s): %v", hop, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	<-swapDone

	if err := a.Atomic(func(tx Tx) error {
		sum := 0
		for _, c := range cells {
			sum += c.Get(tx)
		}
		if sum != total {
			t.Errorf("final sum = %d, want %d", sum, total)
		}
		return nil
	}); err != nil {
		t.Fatalf("final check: %v", err)
	}
	s := a.Stats()
	if s.Reconfigurations == 0 {
		t.Error("Reconfigurations = 0 — the battery never actually swapped engines")
	}
	if s.InjectedFaults == 0 {
		t.Error("InjectedFaults = 0 — the fault plan did not carry across generations")
	}
}

// TestAdaptiveTraceEvents: swaps, stalls and pins must land in the flight
// recorder as TraceReconfig events with the right code in A.
func TestAdaptiveTraceEvents(t *testing.T) {
	rec := NewTraceRecorder(256)
	a, err := NewAdaptive(EngineSpec{Name: "tl2", Options: EngineOptions{Trace: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(mustSpec("norec")); err != nil {
		t.Fatal(err)
	}
	a.NotePin()
	var swaps, pins int
	for _, ev := range rec.Events() {
		if ev.Kind != TraceReconfig {
			continue
		}
		switch ev.A {
		case TraceReconfigSwap:
			swaps++
		case TraceReconfigPin:
			pins++
		}
	}
	if swaps != 1 || pins != 1 {
		t.Errorf("trace: swaps = %d, pins = %d; want 1, 1", swaps, pins)
	}
}

// TestAdaptiveRejectsUnknownEngine: a bad target must fail the build step
// and leave the current generation untouched.
func TestAdaptiveRejectsUnknownEngine(t *testing.T) {
	if _, err := NewAdaptive(mustSpec("no-such-engine")); err == nil {
		t.Fatal("NewAdaptive accepted an unknown engine")
	}
	a, err := NewAdaptive(mustSpec("tl2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(mustSpec("no-such-engine")); err == nil {
		t.Fatal("Reconfigure accepted an unknown engine")
	}
	if name := a.Current().Name; name != "tl2" {
		t.Errorf("failed Reconfigure changed the engine to %q", name)
	}
	if err := a.Atomic(func(tx Tx) error { return nil }); err != nil {
		t.Errorf("engine unusable after a failed Reconfigure: %v", err)
	}
}

// TestAdaptiveCarriesOSTMOptions: the OSTM-only knobs ride in EngineOptions
// like every other, so an adaptive runtime started on them builds its OSTM
// generation with them — and builds it the same way again after a round
// trip through another engine. (They used to be strategy-level fields the
// adaptive path never saw: -g ostm -cm karma -adaptive silently ran Polka.)
func TestAdaptiveCarriesOSTMOptions(t *testing.T) {
	spec := mustSpec("ostm:cm=karma,visible")
	a, err := NewAdaptive(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got := a.Current().String(); got != spec.String() {
			t.Errorf("%s: Current() = %s, want %s", when, got, spec)
		}
		cfg := a.cur.Load().eng.(*OSTM).cfg
		if _, karma := cfg.CM.(Karma); !karma || !cfg.VisibleReads {
			t.Errorf("%s: inner OSTM built with CM %T, VisibleReads %v; want Karma, true", when, cfg.CM, cfg.VisibleReads)
		}
	}
	check("at construction")
	if err := a.Reconfigure(EngineSpec{Name: "tl2", Options: spec.Options}); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconfigure(spec); err != nil {
		t.Fatal(err)
	}
	check("after a round trip through tl2")
}
