package stm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// box holds one immutable snapshot of a Var's value. Box identity (pointer
// equality) is what read-set validation compares, so equal values written at
// different times are still distinguishable. val is immutable once the box
// is published through Var.cur.
//
// A box is its value and nothing else, on every engine: NOrec's commit stamp
// and version chain live in a vbox (mvcc.go), which only a versions=K NOrec
// engine allocates. A cell's box and the value it publishes are one
// allocation (valueBox): val is a *T into the box itself, so a read loads
// the box and finds the value beside it, and a *T the cell hands out keeps
// its box alive for as long as it is held.
type box struct {
	val any
}

// boxClone is a Var's internal clone: it returns a private, unpublished box
// holding a copy of val, made inside the value's own allocation (a cell's
// valueBox), so the copy a transaction edits is the box its commit
// publishes. With versioned set — NOrec under versions > 1 — the box is the
// head of a vbox, returned as vb, so that the copy, its commit stamp and its
// link to older versions are still one allocation; vb is nil otherwise.
type boxClone func(val any, versioned bool) (b *box, vb *vbox)

// publishable returns the box a commit publishes val in: b, the private box
// val was made in (a cell's clone or Cell.Set), when it still holds val, and
// a fresh one when val came from a plain Write or an Update callback
// replaced it.
func publishable(b *box, val any) *box {
	if b == nil || !sameValue(b.val, val) {
		return &box{val: val}
	}
	return b
}

// Var is one STM-managed memory location. A Var holds a single value of any
// type; object-based designs (like the STMBench7 data structure) store a
// whole object's mutable state in one Var, making the Var the unit of
// copy-on-write logging.
//
// A Var carries its ownership record (orec) inline, so the unit of conflict
// detection is the object, and it is exactly one 64-byte cache line: a read
// finds the value pointer and the lock word in the Var's first 16 bytes
// (see orec.go).
//
// Every Var is a cell's: the cell constructors (NewCell, NewCells, InitCell,
// NewCellClone) give it a unique id from a VarSpace, and ids key the
// transactions' access-set indexes. A Var must not be copied.
type Var struct {
	// cur is the committed value used by the direct, TL2 and NOrec
	// engines. For OSTM it is the committed value whenever the Var's orec
	// holds no locator: a locator's retirement writes its committed value
	// back before clearing the slot.
	cur atomic.Pointer[box]

	// own is the Var's ownership record. It follows cur, lock word first,
	// so the two words a read loads — cur and own.meta — are the Var's
	// first 16 bytes, which neither a Var allocated alone nor one in a
	// NewCells slab has split across cache lines (TestVarLayout).
	own orec

	id    uint64
	clone boxClone

	// ver is the head of NOrec's version chain under versions > 1 — the
	// vbox whose box cur publishes — and nil on every other engine and
	// until the Var's first versioned commit (mvcc.go). It is the word
	// that rounds a Var up to one cache line: the cells of a NewCells slab
	// are then 64 bytes apart, so no two lock words share a line and no
	// cell's hot 16 bytes straddle two.
	ver atomic.Pointer[vbox]
}

// readerSet is an immutable set of reader transactions.
type readerSet struct {
	list []*txState
}

// VarSpace allocates Vars with unique ids. All Vars that may participate in
// the same transaction must come from the same space (or at least have
// globally unique ids); engines embed a space, so Engine.VarSpace is the
// usual source.
type VarSpace struct {
	nextID atomic.Uint64
}

// NewVarSpace returns a standalone id space. Most callers use
// Engine.VarSpace instead.
func NewVarSpace() *VarSpace { return &VarSpace{} }

// initVar makes the zero Var at v — a cell's, allocated on its own, in a
// slab or inside another object — a Var of this space publishing b.
func (s *VarSpace) initVar(v *Var, b *box, clone boxClone) {
	v.id = s.nextID.Add(1)
	v.clone = clone
	v.cur.Store(b)
}

// SetTag attaches a one-byte debug tag to the Var (visible in String). The
// STMBench7 core tags every Var with its synchronization domain, which the
// lock-strategy tests use to verify lock coverage.
func (v *Var) SetTag(tag uint8) *Var { v.own.tag = tag; return v }

// Tag returns the debug tag set by SetTag (0 if none).
func (v *Var) Tag() uint8 { return v.own.tag }

// ID returns the Var's unique id within its VarSpace.
func (v *Var) ID() uint64 { return v.id }

func (v *Var) String() string {
	if v.own.tag != 0 {
		return fmt.Sprintf("Var(%d:%d)", v.id, v.own.tag)
	}
	return fmt.Sprintf("Var(%d)", v.id)
}

// Tx is the handle a transaction function uses to access shared state. The
// same interface is implemented by all engines, which is what lets the
// STMBench7 operations run unchanged under locks or under either STM.
//
// A Tx is only valid during the call to Atomic that supplied it and must not
// be used from other goroutines.
type Tx interface {
	// Read returns the Var's current value as seen by this transaction.
	// The returned value must not be mutated.
	Read(v *Var) any

	// Write replaces the Var's value in this transaction. The new value
	// must not be mutated after the call.
	Write(v *Var, val any)

	// Update applies f to the Var's value and stores the result.
	// Transactional engines pass f a private copy (made by the clone of
	// the cell the Var belongs to), so f may mutate its argument freely;
	// the direct engine passes the live value, so the mutation happens in
	// place. f must return the value to store (which may be its argument).
	Update(v *Var, f func(val any) any)
}

// Engine executes transactions. Engines are safe for concurrent use; any
// number of goroutines may call Atomic simultaneously.
type Engine interface {
	// Name identifies the engine ("direct", "ostm", "tl2", "norec") in
	// reports; engines use it as their name in the engine table.
	Name() string

	// Atomic runs fn as one transaction, retrying on conflicts until the
	// transaction either commits (fn returned nil) or fn returns an
	// error, in which case the transaction's writes are discarded and the
	// error is returned.
	Atomic(fn func(tx Tx) error) error

	// VarSpace returns the engine's id space for allocating Vars.
	VarSpace() *VarSpace

	// Stats returns a snapshot of cumulative execution counters.
	Stats() Stats
}

// ErrAborted is the sentinel for every give-up return from Atomic: the
// transaction could not commit within its configured budget. It is only
// possible when the engine bounds the retry loop — a retry budget
// (MaxRetries), a wall-clock budget (TxDeadline), or both — and it is
// never returned when SerialFallback is enabled, because escalation to
// the serial token guarantees the commit instead.
//
// Atomic never returns ErrAborted itself; it returns one of the wrapped
// singletons below (ErrRetryExhausted, ErrDeadlineExceeded,
// ErrInjectedFault), each of which satisfies
// errors.Is(err, ErrAborted). Callers that only care whether the
// transaction gave up keep matching ErrAborted; callers that care why
// use errors.Is against the specific singleton, or the AbortCause
// accessor.
var ErrAborted = errors.New("stm: transaction aborted (retry budget exhausted)")

// Cause classifies why an Atomic call gave up (see AbortCause).
type Cause int

const (
	// NoAbort: the error is nil or not an stm abort at all.
	NoAbort Cause = iota
	// RetryBudgetExhausted: the attempt count passed MaxRetries.
	RetryBudgetExhausted
	// DeadlineExceeded: the TxDeadline wall-clock budget expired between
	// attempts.
	DeadlineExceeded
	// InjectedFault: the retry budget was exhausted and the final
	// attempt was killed by a FaultPlan forced abort.
	InjectedFault
)

// String names the cause for reports and error messages.
func (c Cause) String() string {
	switch c {
	case RetryBudgetExhausted:
		return "retry budget exhausted"
	case DeadlineExceeded:
		return "deadline exceeded"
	case InjectedFault:
		return "injected fault"
	default:
		return "none"
	}
}

// abortError is the concrete type behind the ErrAborted family: it
// carries the termination cause and unwraps to ErrAborted so existing
// errors.Is(err, ErrAborted) checks keep matching.
type abortError struct{ cause Cause }

func (e *abortError) Error() string { return "stm: transaction aborted (" + e.cause.String() + ")" }
func (e *abortError) Unwrap() error { return ErrAborted }

// The three give-up singletons. Each satisfies
// errors.Is(err, ErrAborted) and is itself errors.Is-distinguishable.
// Singletons keep the give-up path allocation-free.
var (
	ErrRetryExhausted   error = &abortError{cause: RetryBudgetExhausted}
	ErrDeadlineExceeded error = &abortError{cause: DeadlineExceeded}
	ErrInjectedFault    error = &abortError{cause: InjectedFault}
)

// AbortCause reports why an Atomic call gave up: NoAbort unless err (or
// something it wraps) is one of the abort singletons.
func AbortCause(err error) Cause {
	for err != nil {
		if ae, ok := err.(*abortError); ok {
			return ae.cause
		}
		err = errors.Unwrap(err)
	}
	return NoAbort
}

// conflict is the panic payload used internally to unwind a doomed
// transaction attempt. It never escapes Atomic.
type conflict struct {
	reason   string
	injected bool // true when thrown by a FaultPlan forced abort
}

func (c conflict) String() string { return "stm conflict: " + c.reason }

// throwConflict aborts the current attempt by panicking; Atomic recovers it
// and retries.
func throwConflict(reason string) {
	panic(conflict{reason: reason})
}

// throwInjectedFault aborts the current attempt like throwConflict but
// marks the conflict as fault-injected, so a retry loop that exhausts
// its budget on one can report InjectedFault as the cause.
func throwInjectedFault() {
	panic(conflict{reason: "injected fault", injected: true})
}

// rethrowIfNotConflict re-panics recovered values that are not internal
// conflict signals (i.e. genuine bugs in user code).
func rethrowIfNotConflict(r any) conflict {
	c, ok := r.(conflict)
	if !ok {
		panic(r)
	}
	return c
}
