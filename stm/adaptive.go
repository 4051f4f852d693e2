package stm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Adaptive runtime: live engine reconfiguration by quiesce-and-swap.
//
// An Adaptive engine wraps any registered STM engine and can replace it —
// protocol, orec granularity, stripe count, clock sharding, version depth,
// commit-pipelining knobs — while the workload keeps running. The swap
// protocol is a three-step barrier:
//
//  1. Quiesce. A reconfiguration gate (one atomic word: a draining bit
//     plus an in-flight transaction count, the lock-free analogue of
//     serial.go's RWMutex token) stops new transactions from entering and
//     waits for the in-flight count to reach zero. In-flight transactions
//     are never blocked or aborted — draining only bars NEW entrants, so
//     every transaction that could hold engine metadata runs to its
//     natural end and the drain cannot deadlock on itself.
//
//  2. Transfer. With zero transactions in flight, the committed state is
//     moved into a freshly constructed engine: for every Var the space
//     ever allocated, the committed value is resolved (resolveSnapshot —
//     with no Validating owner possible, resolution is total), written
//     back into the Var's cur cell as a fresh box with wv = 0, and the
//     Var is re-bound to the NEW engine's orec table: its inline record is
//     reset in place, and orc points at it or at the new table's stripe.
//     wv = 0 is the "older than every possible snapshot" timestamp NewVar
//     uses, so the new engine's clocks need no re-seeding (they start at
//     zero like a fresh engine's), and storing a fresh head box truncates
//     every multi-version prev chain in the same stroke. Orec re-pointing
//     matters because engines interpret orecs against their own space
//     (TL2's coalescing group words index the engine's table by orec id),
//     so a Var must never carry metadata from a retired engine.
//
//  3. Swap. The current-engine pointer is flipped atomically, the retired
//     engine's counters are folded into the wrapper's running base (Stats
//     stays monotone across swaps), and the gate reopens.
//
// Opacity across a swap: the gate guarantees no transaction — validating
// or read-only snapshot, both enter through it — overlaps the transfer
// window. Every transaction that entered before the drain observed only
// old-engine state and committed (or aborted) entirely before the
// transfer began; every transaction after the gate reopens observes a
// state indistinguishable from a freshly constructed engine whose Vars
// were initialized to the committed values — exactly the state a
// serialization of the pre-swap history produces. No transaction can
// observe a mixed state, because no transaction runs while the state is
// mixed. The gate word itself is the synchronization edge: post-swap
// entrants' CAS on the gate acquires everything the transfer published.
//
// Stall escalation, never deadlock: the drain has a hard wall-clock
// deadline (DrainDeadline). A transaction stuck in user code — or a
// scheduler hiccup on an oversubscribed box — could hold the in-flight
// count up forever; when the deadline passes, the swap is ABANDONED (the
// old engine keeps running; ErrQuiesceStalled is returned; the stall is
// counted in ReconfigStalls/ReconfigStallNs and flight-recorded) and the
// runtime enters serial degradation: new transactions are admitted but
// serialized one at a time through a mutex, shrinking the in-flight
// population so the stuck transaction can finish, after which degradation
// lifts automatically the first time the gate goes idle. The caller may
// then retry the reconfiguration.
//
// The controller that decides WHEN to reconfigure lives in internal/adapt
// (declarative rules over per-interval Stats deltas, with hysteresis and
// a thrash guardrail); this file is only the mechanism.

// ErrQuiesceStalled is returned by Reconfigure when the in-flight drain
// did not reach zero within DrainDeadline. The swap did not happen; the
// previous engine remains current and the runtime is in serial
// degradation until it next goes idle.
var ErrQuiesceStalled = errors.New("stm: reconfiguration quiesce stalled (drain deadline exceeded)")

// DefaultDrainDeadline bounds the quiesce drain when the caller does not
// override it. Generous next to any sane transaction length (STMBench7
// long traversals are single-digit milliseconds): a drain that needs more
// than this is stuck, not slow.
const DefaultDrainDeadline = 250 * time.Millisecond

// drainingBit marks the gate as draining; the low bits count in-flight
// transactions.
const drainingBit = uint64(1) << 63

// reconfigGate is the reconfiguration barrier. It is serial.go's token
// idea rebuilt on one atomic word so the drain can observe the in-flight
// count and time out — a sync.RWMutex can block forever but cannot be
// asked "how many readers remain".
type reconfigGate struct {
	word     atomic.Uint64 // drainingBit | in-flight count
	degraded atomic.Bool   // serial degradation after a stalled drain
	serial   sync.Mutex    // the degradation token
}

// enter admits one transaction, waiting out any in-progress drain, and
// reports whether the caller was serialized by degradation mode (the
// token it must return to exit).
func (g *reconfigGate) enter() bool {
	attempt := 0
	for {
		w := g.word.Load()
		if w&drainingBit != 0 {
			spinWait(backoffDur(attempt, w))
			attempt++
			continue
		}
		if g.word.CompareAndSwap(w, w+1) {
			break
		}
	}
	if g.degraded.Load() {
		g.serial.Lock()
		return true
	}
	return false
}

// exit retires one transaction. When the gate goes idle, serial
// degradation (if any) lifts — the stall pressure is gone.
func (g *reconfigGate) exit(serialized bool) {
	if serialized {
		g.serial.Unlock()
	}
	if g.word.Add(^uint64(0))&^drainingBit == 0 {
		g.degraded.Store(false)
	}
}

// quiesce bars new entrants and waits for the in-flight count to reach
// zero. On success the gate stays closed (the caller owns the drained
// window and must release). On deadline it reopens the gate, flags serial
// degradation, and returns false.
func (g *reconfigGate) quiesce(max time.Duration) bool {
	for {
		w := g.word.Load()
		if g.word.CompareAndSwap(w, w|drainingBit) {
			break
		}
	}
	deadline := nanotime() + int64(max)
	attempt := 0
	for {
		w := g.word.Load()
		if w&^drainingBit == 0 {
			return true
		}
		if nanotime() >= deadline {
			// Degrade BEFORE reopening so entrants resumed by the
			// release observe the flag.
			g.degraded.Store(true)
			g.release()
			return false
		}
		spinWait(backoffDur(attempt, w))
		attempt++
	}
}

// release reopens the gate after a drained window.
func (g *reconfigGate) release() {
	for {
		w := g.word.Load()
		if g.word.CompareAndSwap(w, w&^drainingBit) {
			return
		}
	}
}

// engineState is one generation of the adaptive runtime: the engine plus
// the spec it was built from.
type engineState struct {
	eng  Engine
	spec EngineSpec
}

// Adaptive is the reconfigurable engine wrapper. It implements Engine and
// SnapshotReader by delegating to the current inner engine through the
// reconfiguration gate, and Reconfigure swaps that engine live. Build one
// with NewAdaptive; with no Reconfigure calls it is a pass-through shell
// around the inner engine (one gate CAS pair per transaction).
type Adaptive struct {
	space VarSpace // the STABLE id space handed to callers; tracks Vars
	gate  reconfigGate
	cur   atomic.Pointer[engineState]

	// mu serializes Reconfigure callers; statsMu makes the base-fold +
	// pointer-flip atomic with respect to Stats readers (the telemetry
	// sampler polls concurrently).
	mu      sync.Mutex
	statsMu sync.Mutex
	// base accumulates retired engines' counters so Stats stays
	// cumulative and monotone across swaps (its snapshot properties are
	// zeroed at fold time — the current engine's view wins).
	base Stats

	reconfigs atomic.Uint64
	stalls    atomic.Uint64
	stallNs   atomic.Uint64

	// Immutable cross-generation options: every engine generation shares
	// the recorder and the fault plan (each generation snapshots the plan
	// with fresh probe counters, like any fresh engine).
	faults   *FaultPlan
	traceRec *TraceRecorder
	tr       traceTap

	drainDeadline time.Duration
}

// NewAdaptive returns an adaptive runtime whose first generation is built
// from spec (a registered engine name plus its options). The returned
// wrapper's VarSpace is stable across reconfigurations — allocate all Vars
// from it.
func NewAdaptive(spec EngineSpec) (*Adaptive, error) {
	eng, err := NewWith(spec.Name, spec.Options)
	if err != nil {
		return nil, err
	}
	a := &Adaptive{
		faults:        spec.Options.Faults,
		traceRec:      spec.Options.Trace,
		drainDeadline: DefaultDrainDeadline,
	}
	a.tr = a.traceRec.tap()
	a.space.track = &varTracker{}
	a.space.orecSrc.Store(&eng.VarSpace().orecs)
	a.cur.Store(&engineState{eng: eng, spec: spec})
	return a, nil
}

// SetDrainDeadline overrides the quiesce drain's hard deadline
// (non-positive values keep the default). Call before Reconfigure.
func (a *Adaptive) SetDrainDeadline(d time.Duration) {
	if d > 0 {
		a.drainDeadline = d
	}
}

// Name identifies the runtime and its current inner engine.
func (a *Adaptive) Name() string { return "adaptive(" + a.cur.Load().spec.Name + ")" }

// Current returns the spec the current generation was built from.
func (a *Adaptive) Current() EngineSpec { return a.cur.Load().spec }

// VarSpace returns the stable, reconfiguration-tracked id space.
func (a *Adaptive) VarSpace() *VarSpace { return &a.space }

// Atomic runs fn on the current engine, inside the reconfiguration gate.
func (a *Adaptive) Atomic(fn func(tx Tx) error) error {
	serialized := a.gate.enter()
	defer a.gate.exit(serialized)
	return a.cur.Load().eng.Atomic(fn)
}

// RunReadOnly runs fn as a read-only snapshot transaction on the current
// engine (falling back to its Atomic path when the engine lacks the
// capability). Snapshot readers pass through the gate like writers: the
// opacity argument needs the transfer window transaction-free, snapshot
// transactions included.
func (a *Adaptive) RunReadOnly(fn func(tx Tx) error) error {
	serialized := a.gate.enter()
	defer a.gate.exit(serialized)
	return RunReadOnly(a.cur.Load().eng, fn)
}

// Stats returns cumulative counters across all engine generations plus
// the wrapper's own reconfiguration counters.
func (a *Adaptive) Stats() Stats {
	a.statsMu.Lock()
	s := a.cur.Load().eng.Stats()
	base := a.base
	a.statsMu.Unlock()
	sum := s.Add(base)
	sum.Reconfigurations = a.reconfigs.Load()
	sum.ReconfigStalls = a.stalls.Load()
	sum.ReconfigStallNs = a.stallNs.Load()
	return sum
}

// Reconfigure swaps the runtime onto a freshly built engine generation:
// quiesce, transfer, flip, release. The engine's fault plan and flight
// recorder carry over from construction regardless of spec. On a stalled
// drain it returns ErrQuiesceStalled and changes nothing except entering
// serial degradation (see the file comment); any other error means the
// target engine could not be built.
func (a *Adaptive) Reconfigure(spec EngineSpec) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	spec.Options.Faults = a.faults
	spec.Options.Trace = a.traceRec
	next, err := NewWith(spec.Name, spec.Options)
	if err != nil {
		return fmt.Errorf("stm: reconfigure: %w", err)
	}
	start := nanotime()
	if !a.gate.quiesce(a.drainDeadline) {
		a.stalls.Add(1)
		a.stallNs.Add(uint64(nanotime() - start))
		if a.tr.rec != nil {
			a.tr.note(TraceReconfig, TraceReconfigStall, a.reconfigs.Load())
		}
		return ErrQuiesceStalled
	}
	// Drained window: no transaction is in flight anywhere on the
	// runtime, and NewVar only runs inside transactions, so the tracked
	// Var set and every orec are frozen.
	a.transfer(next)
	old := a.cur.Load()
	a.statsMu.Lock()
	retired := old.eng.Stats()
	retired.ClockShards, retired.ClockShardSpread = 0, 0
	a.base = a.base.Add(retired)
	a.cur.Store(&engineState{eng: next, spec: spec})
	a.statsMu.Unlock()
	a.stallNs.Add(uint64(nanotime() - start))
	n := a.reconfigs.Add(1)
	a.gate.release()
	if a.tr.rec != nil {
		a.tr.note(TraceReconfig, TraceReconfigSwap, n)
	}
	return nil
}

// transfer moves committed state into the next engine. Caller holds the
// drained window.
func (a *Adaptive) transfer(next Engine) {
	nspace := next.VarSpace()
	for _, v := range a.space.track.snapshotVars() {
		b, ok := resolveSnapshot(v)
		if !ok {
			// Unreachable with the window drained (a Validating owner is
			// a transaction in flight). Were it reached, the raw cell is
			// the last retired committed value.
			b = v.cur.Load()
		}
		// Fresh head at wv = 0 ("older than every possible snapshot"):
		// re-seeds the value for the new engine's from-zero clocks and
		// truncates any multi-version chain to its head.
		v.cur.Store(&box{val: b.val})
		// The inline record is reset in place whichever table the Var
		// binds to next: it drops the retired engine's locators and
		// reader sets, and a Var leaving object granularity must not
		// carry them into a later generation that returns to it.
		v.own.reset()
		nspace.orecs.bind(v)
	}
	a.space.orecSrc.Store(&nspace.orecs)
}

// NotePin records a controller thrash-guardrail pin in the flight
// recorder (no-op without a recorder). The controller cannot reach the
// unexported tap, so the mechanism exposes the probe.
func (a *Adaptive) NotePin() {
	if a.tr.rec != nil {
		a.tr.note(TraceReconfig, TraceReconfigPin, a.reconfigs.Load())
	}
}
