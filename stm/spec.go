package stm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Engine specs.
//
// An EngineSpec — an engine name plus an EngineOptions value — is the one
// carrier of engine configuration: the strategy layer, the harness, the
// scenario engine and both CLIs (-g) hold it opaquely and name no knob.
// Adding a knob is a field of EngineOptions, a key in Apply and String
// below, and the engine code that reads it; the reflection test in
// spec_test.go fails a field without a key.

// EngineOptions is the whole configuration of an engine: NewTL2, NewNOrec
// and NewOSTM take it, and every field but Trace has a spec key. Engines
// consume the fields that apply to their design and ignore the rest (NOrec
// has no per-location metadata; direct and the lock strategies'
// pass-through engine ignore everything), so one value sweeps
// every engine. The spec key of each field is given in brackets; see
// ParseEngineSpec for the grammar.
type EngineOptions struct {
	// CM [cm=NAME] arbitrates OSTM's conflicts (nil = Polka, the manager
	// the paper used).
	CM ContentionManager
	// CommitCounterHeuristic [commitcounter] skips an OSTM incremental
	// validation pass when no transaction in the engine has committed a
	// write since this transaction's previous validation — the "global
	// commit counter" strategy of Spear et al. (DISC 2006), one of the
	// paper's cited fixes. Sound: a read-set entry can only be invalidated
	// by a commit. The commit-time validation is never skipped (it
	// arbitrates the Validating-vs-Validating race, which the counter
	// cannot see). Off by default, as are VisibleReads and a Timid CM:
	// the default is the paper's ASTM. Each stays for a measured win
	// (README, "§5's fixes, per engine").
	CommitCounterHeuristic bool
	// VisibleReads [visible] replaces OSTM's invisible reads + validation
	// with reader registration on every orec: writers arbitrate with
	// registered readers through the contention manager, and no
	// validation is ever needed (see visible.go). This is the classic
	// alternative the paper implicitly ablates when it blames invisible
	// reads for the O(k²) cost.
	VisibleReads bool
	// TxDeadline [deadline=D] bounds one Atomic call's total wall-clock
	// time across all of its attempts (0 = no deadline). The deadline is
	// checked between attempts — the attempt in flight always finishes —
	// so an Atomic call runs at least one attempt. Expiry returns
	// ErrDeadlineExceeded (which errors.Is-matches ErrAborted) unless
	// SerialFallback is on, in which case it escalates instead. TL2,
	// NOrec and OSTM, like the three fields below (every engine with a
	// retry loop to bound, escalate or inject into).
	TxDeadline time.Duration
	// MaxRetries [retries=N] bounds the re-executions of one Atomic call
	// (0 = retry forever). Past the budget Atomic returns
	// ErrRetryExhausted (which errors.Is-matches ErrAborted) unless
	// SerialFallback is on, in which case it escalates instead.
	MaxRetries int
	// SerialFallback [serial] guarantees liveness: when retry/deadline
	// pressure crosses the escalation threshold the transaction re-runs
	// under the engine's exclusive serial token and is guaranteed to
	// commit — an engine with SerialFallback on never returns ErrAborted.
	// See serial.go for the token protocol and its cost.
	SerialFallback bool
	// Faults [faults=PLAN] installs a deterministic fault-injection plan
	// on the engine's probe sites (nil = no injection). The engine
	// snapshots the plan with fresh counters at construction. See
	// probe.go for the sites and ParseFaultPlan for the plan syntax.
	Faults *FaultPlan
	// Trace installs a transaction flight recorder on the engine's probe
	// sites (nil = no tracing; with neither, a site is one nil check, see
	// probe.go). Several engines may share one
	// recorder; their events interleave on its logical clock. A recorder
	// is a live object, not configuration, so it is the one field without
	// a spec key. See trace.go for the event schema.
	Trace *TraceRecorder
	// DisableROSnapshot [nosnap] turns off the read-only snapshot fast
	// path: RunReadOnly runs the engine's validating Atomic path instead.
	// TL2, NOrec and OSTM. Default off (the fast path stays on).
	DisableROSnapshot bool
}

// Validate rejects out-of-range options. It is the one range check for
// engine configuration: Apply cannot produce an out-of-range value, so
// this is for options built as Go literals, and the strategy layer calls it
// before anything is built.
func (o EngineOptions) Validate() error {
	switch {
	case o.TxDeadline < 0:
		return fmt.Errorf("stm: negative TxDeadline %v", o.TxDeadline)
	case o.MaxRetries < 0:
		return fmt.Errorf("stm: negative MaxRetries %d", o.MaxRetries)
	}
	return nil
}

// String renders the options in ParseEngineSpec's option syntax: canonical
// key order, zero-valued fields omitted, so zero options render as "".
func (o EngineOptions) String() string {
	var b strings.Builder
	add := func(format string, args ...any) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, format, args...)
	}
	flag := func(on bool, key string) {
		if on {
			add("%s", key)
		}
	}
	if o.CM != nil {
		add("cm=%s", o.CM.Name())
	}
	flag(o.CommitCounterHeuristic, "commitcounter")
	flag(o.VisibleReads, "visible")
	if o.TxDeadline != 0 {
		add("deadline=%v", o.TxDeadline)
	}
	if o.MaxRetries != 0 {
		add("retries=%d", o.MaxRetries)
	}
	flag(o.SerialFallback, "serial")
	flag(o.DisableROSnapshot, "nosnap")
	if o.Faults != nil {
		add("faults=%s", o.Faults)
	}
	return b.String()
}

// Apply parses an option list (the part of a spec after "name:") over o:
// a key present in s sets its field, an absent key keeps o's value. That
// is the overlay rule scenario files use — "serial=off" turns a run-level
// serial off, "retries=0" restores an unbounded retry loop, an empty s
// changes nothing.
func (o EngineOptions) Apply(s string) (EngineOptions, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("stm: engine options %q: %s", s, fmt.Sprintf(format, args...))
	}
	rest := strings.TrimSpace(s)
	for rest != "" {
		// faults= is last and takes the rest of the string: the plan's
		// own "," and ":" separators need no escaping. An empty plan
		// clears an inherited one.
		if plan, ok := strings.CutPrefix(rest, "faults="); ok {
			p, err := ParseFaultPlan(plan)
			if err != nil {
				return EngineOptions{}, err
			}
			o.Faults = p
			break
		}
		opt, tail, more := strings.Cut(rest, ",")
		opt, rest = strings.TrimSpace(opt), strings.TrimSpace(tail)
		if opt == "" || (more && rest == "") {
			return EngineOptions{}, bad("empty option")
		}
		key, val, hasVal := strings.Cut(opt, "=")
		onOff := func(dst *bool) error {
			switch {
			case !hasVal || val == "on":
				*dst = true
			case val == "off":
				*dst = false
			default:
				return bad("%s takes on or off, not %q", key, val)
			}
			return nil
		}
		count := func(dst *int) error {
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return bad("%s needs a count >= 0, not %q", key, val)
			}
			*dst = n
			return nil
		}
		var err error
		switch key {
		case "cm":
			o.CM, err = ParseContentionManager(val)
		case "commitcounter":
			err = onOff(&o.CommitCounterHeuristic)
		case "visible":
			err = onOff(&o.VisibleReads)
		case "deadline":
			o.TxDeadline, err = time.ParseDuration(val)
			if err != nil || o.TxDeadline < 0 {
				err = bad("deadline needs a duration >= 0, not %q", val)
			}
		case "retries":
			err = count(&o.MaxRetries)
		case "serial":
			err = onOff(&o.SerialFallback)
		case "nosnap":
			err = onOff(&o.DisableROSnapshot)
		default:
			err = bad("unknown key %q (want cm, commitcounter, visible, deadline, retries, serial, nosnap or faults)", key)
		}
		if err != nil {
			return EngineOptions{}, err
		}
	}
	return o, nil
}

// EngineSpec is one point of an (engine, configuration) sweep as a single
// printable value: a name — an stm engine, or any other strategy
// name a layer above resolves — plus the options it is built with.
type EngineSpec struct {
	Name    string
	Options EngineOptions
}

// ParseEngineSpec parses the textual spec syntax -g and scenario files
// use:
//
//	spec    := name [ ":" options ]
//	options := option ( "," option )*
//	option  := "cm=" NAME              OSTM contention manager (polka, timid)
//	         | "commitcounter"         OSTM skips validations no commit made necessary
//	         | "visible"               OSTM visible reads
//	         | "deadline=" DURATION    per-transaction retry budget (Go duration)
//	         | "retries=" N            per-transaction attempt budget (0 = unbounded)
//	         | "serial"                irrevocable serial fallback
//	         | "nosnap"                read-only operations take the validating path
//	         | "faults=" PLAN          fault plan in ParseFaultPlan syntax; must be
//	                                   last, and takes the rest of the string
//
// e.g. "norec:deadline=25ms,retries=8", "tl2:nosnap" or
// "norec:serial,faults=seed=7,precommit:1/40:80us,abort:1/24". A bare name is
// a spec with zero options. The keys without a value are booleans and also
// accept "=on" and "=off", which only matters when the options are applied
// over a base; see EngineOptions.Apply. A repeated key keeps its last value.
func ParseEngineSpec(s string) (EngineSpec, error) {
	name, opts, _ := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return EngineSpec{}, fmt.Errorf("stm: engine spec %q: empty name", s)
	}
	o, err := EngineOptions{}.Apply(opts)
	if err != nil {
		return EngineSpec{}, err
	}
	return EngineSpec{Name: name, Options: o}, nil
}

// String renders the spec back in ParseEngineSpec syntax; a spec with zero
// options renders as the bare name.
func (s EngineSpec) String() string {
	if opts := s.Options.String(); opts != "" {
		return s.Name + ":" + opts
	}
	return s.Name
}
