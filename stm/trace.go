package stm

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// Transaction flight recorder.
//
// A TraceRecorder captures attempt-lifecycle events — begins, commits with
// read/write-set sizes, aborts with their cause, validation passes, commit-
// lock acquisitions, snapshot restarts, serial escalations — into a set of
// lock-free ring buffers. Each descriptor's ring is its probe hook
// (probe.go), recording the event the site table gives each site: one
// atomic fetch-add to reserve a ring slot plus a handful of plain stores.
//
// Descriptors (not goroutines) own ring shards: every pooled transaction
// descriptor is assigned a shard round-robin at creation, and a descriptor
// is used by exactly one goroutine at a time, so in steady state each
// worker writes its own shard — per-goroutine ring buffers without the
// runtime's goroutine identity. Two descriptors sharing a shard stay safe
// (slots are reserved atomically) at the cost of occasionally interleaved
// neighbors.
//
// Timestamps are logical, not wall-clock: every event carries a global
// sequence number drawn from one atomic counter, and the Chrome Trace
// export uses that sequence as its microsecond timeline. A single-threaded
// run against a fresh recorder therefore reproduces its event stream bit
// for bit — the property the determinism test pins down — and concurrent
// runs still get a total order of probe firings.

// TraceKind identifies one flight-recorder event type.
type TraceKind uint8

const (
	// TraceBegin marks the start of a validating attempt (A = attempt
	// ordinal within its Atomic call).
	TraceBegin TraceKind = iota
	// TraceCommit marks a committed transaction (A = read-set size,
	// B = write-set size; snapshot commits carry B = 0).
	TraceCommit
	// TraceAbort marks a discarded attempt (A = cause: one of the
	// TraceAbort* codes; B = attempt ordinal).
	TraceAbort
	// TraceValidate marks a read-set validation pass (A = entries
	// checked).
	TraceValidate
	// TraceLock marks commit-time lock acquisition: TL2 has locked its
	// write set's orecs, NOrec holds the sequence lock, OSTM has entered
	// its Validating window (A = write-set size).
	TraceLock
	// TraceSnapRestart marks a snapshot-mode restart (A = restart
	// ordinal within its RunReadOnly call).
	TraceSnapRestart
	// TraceSerial marks a transaction escalating to the irrevocable
	// serial mode.
	TraceSerial

	numTraceKinds
)

// Abort-cause codes carried in a TraceAbort event's A payload.
const (
	// TraceAbortConflict is an ordinary conflict abort.
	TraceAbortConflict uint64 = iota
	// TraceAbortUser is a logical failure (the transaction function
	// returned an error).
	TraceAbortUser
	// TraceAbortInjected is a FaultPlan forced abort.
	TraceAbortInjected
)

var traceKindNames = [numTraceKinds]string{
	TraceBegin:       "begin",
	TraceCommit:      "commit",
	TraceAbort:       "abort",
	TraceValidate:    "validate",
	TraceLock:        "lock",
	TraceSnapRestart: "snap-restart",
	TraceSerial:      "serial",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TraceEvent is one fixed-size flight-recorder record. Seq is the global
// logical timestamp (unique, totally ordered); Shard identifies the ring
// the event landed in (a stable per-descriptor id, the Chrome export's
// tid); A and B are per-kind payloads documented on the TraceKind
// constants.
type TraceEvent struct {
	Seq   uint64
	A     uint64
	B     uint64
	Shard uint32
	Kind  TraceKind
}

// traceShardCount is the number of ring shards per recorder. Descriptors
// are assigned shards round-robin, so this bounds how many workers can
// record without sharing a ring.
const traceShardCount = 16

// DefaultTraceEvents is the total event capacity used when
// NewTraceRecorder is given a non-positive capacity.
const DefaultTraceEvents = 1 << 16

// traceShard is one ring: a power-of-two buffer and an atomically
// advanced write cursor. The cursor counts all events ever pushed, so
// cursor - len(buf) events have been overwritten when it exceeds the
// capacity.
type traceShard struct {
	pos  atomic.Uint64
	_    [56]byte // keep neighboring shards' cursors off one cache line
	rec  *TraceRecorder
	id   uint32
	mask uint64
	buf  []TraceEvent
}

// TraceRecorder is the flight recorder: a fixed set of lock-free event
// rings plus the global sequence counter. Build one with NewTraceRecorder
// and install it via EngineOptions.Trace; a nil recorder disables tracing
// entirely.
type TraceRecorder struct {
	seq    atomic.Uint64 // global logical clock; next event's Seq
	assign atomic.Uint64 // round-robin shard assignment for new descriptors
	shards [traceShardCount]traceShard
}

// NewTraceRecorder returns a recorder retaining up to capacity events
// across its rings (rounded up so each ring holds a power of two;
// capacity <= 0 means DefaultTraceEvents). When a ring wraps, its oldest
// events are overwritten — a flight recorder keeps the recent past, not
// the full history.
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	per := 1
	for per < (capacity+traceShardCount-1)/traceShardCount {
		per <<= 1
	}
	if per < 64 {
		per = 64
	}
	r := &TraceRecorder{}
	for i := range r.shards {
		s := &r.shards[i]
		s.rec = r
		s.id = uint32(i)
		s.mask = uint64(per - 1)
		s.buf = make([]TraceEvent, per)
	}
	return r
}

// tap assigns a new descriptor its ring, round-robin.
func (r *TraceRecorder) tap() *traceShard {
	n := r.assign.Add(1) - 1
	return &r.shards[n%traceShardCount]
}

// at implements probe: record the site's event, if it has one.
func (s *traceShard) at(_ *txHead, st site, a, b uint64) {
	if k := siteTable[st].trace; k != numTraceKinds {
		s.note(k, a, b)
	}
}

// note records one event.
func (s *traceShard) note(kind TraceKind, a, b uint64) {
	seq := s.rec.seq.Add(1) - 1
	i := s.pos.Add(1) - 1
	ev := &s.buf[i&s.mask]
	ev.Seq = seq
	ev.A = a
	ev.B = b
	ev.Shard = s.id
	ev.Kind = kind
}

// Len returns the number of events currently retained across all rings.
func (r *TraceRecorder) Len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		p := s.pos.Load()
		if p > uint64(len(s.buf)) {
			p = uint64(len(s.buf))
		}
		n += int(p)
	}
	return n
}

// Dropped returns how many events have been overwritten by ring wraps.
func (r *TraceRecorder) Dropped() uint64 {
	var d uint64
	for i := range r.shards {
		s := &r.shards[i]
		if p := s.pos.Load(); p > uint64(len(s.buf)) {
			d += p - uint64(len(s.buf))
		}
	}
	return d
}

// Events returns the retained events merged across all rings in Seq
// order. Like Stats, the merge is race-free but approximate under
// concurrency (a probe mid-write can surface a partially updated slot);
// quiescent reads — after the run, the normal case — are exact.
func (r *TraceRecorder) Events() []TraceEvent {
	out := make([]TraceEvent, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		p := s.pos.Load()
		n := uint64(len(s.buf))
		if p <= n {
			out = append(out, s.buf[:p]...)
			continue
		}
		// Wrapped: the oldest retained event sits at the cursor.
		head := p & s.mask
		out = append(out, s.buf[head:]...)
		out = append(out, s.buf[:head]...)
	}
	slices.SortFunc(out, func(a, b TraceEvent) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		default:
			return 0
		}
	})
	return out
}

// chromeTraceEvent is one entry of the Chrome Trace Event format
// (chrome://tracing, Perfetto): an instant event ("ph": "i") whose ts is
// the recorder's logical sequence in microseconds and whose tid is the
// ring shard.
type chromeTraceEvent struct {
	Name  string          `json:"name"`
	Cat   string          `json:"cat"`
	Phase string          `json:"ph"`
	TS    uint64          `json:"ts"`
	PID   int             `json:"pid"`
	TID   uint32          `json:"tid"`
	Scope string          `json:"s"`
	Args  chromeTraceArgs `json:"args"`
}

type chromeTraceArgs struct {
	Seq uint64 `json:"seq"`
	A   uint64 `json:"a"`
	B   uint64 `json:"b"`
}

type chromeTraceFile struct {
	TraceEvents []chromeTraceEvent `json:"traceEvents"`
}

// WriteChromeTrace dumps the retained events as Chrome Trace Event JSON
// ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
// Every event round-trips through ParseChromeTrace unchanged.
func (r *TraceRecorder) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	file := chromeTraceFile{TraceEvents: make([]chromeTraceEvent, len(events))}
	for i, ev := range events {
		file.TraceEvents[i] = chromeTraceEvent{
			Name:  ev.Kind.String(),
			Cat:   "stm",
			Phase: "i",
			TS:    ev.Seq,
			PID:   1,
			TID:   ev.Shard,
			Scope: "t",
			Args:  chromeTraceArgs{Seq: ev.Seq, A: ev.A, B: ev.B},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// ParseChromeTrace decodes a WriteChromeTrace dump back into events —
// the round-trip half used by tests and offline tooling.
func ParseChromeTrace(data []byte) ([]TraceEvent, error) {
	var file chromeTraceFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("stm: chrome trace: %w", err)
	}
	out := make([]TraceEvent, len(file.TraceEvents))
	for i, ce := range file.TraceEvents {
		kind := TraceKind(0)
		found := false
		for k, name := range traceKindNames {
			if name == ce.Name {
				kind, found = TraceKind(k), true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("stm: chrome trace: unknown event name %q", ce.Name)
		}
		out[i] = TraceEvent{
			Seq:   ce.Args.Seq,
			A:     ce.Args.A,
			B:     ce.Args.B,
			Shard: ce.TID,
			Kind:  kind,
		}
	}
	return out, nil
}
