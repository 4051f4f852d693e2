package stm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Deterministic fault injection.
//
// A FaultPlan is a probe hook (probe.go) with four decisions: a stall at
// the precommit, lockhold and clocktick sites and a forced conflict abort
// at precommit. Each decision is a pure function of (plan seed, decision,
// per-decision hit counter), so a single-threaded run replays bit for bit:
// the same plan against the same transaction sequence fires the same
// faults in the same places, and Stats.InjectedFaults comes out identical.
// Under concurrency the hit counters are atomic, so each decision's
// sequence is still deterministic even though the interleaving of stalls
// is not.

// faultKind is one of a plan's decisions, named in ParseFaultPlan syntax
// by faultKindNames.
type faultKind int

const (
	faultPreCommit faultKind = iota
	faultLockHold
	faultClockTick
	faultAbort

	numFaultKinds
)

var faultKindNames = [numFaultKinds]string{
	faultPreCommit: "precommit",
	faultLockHold:  "lockhold",
	faultClockTick: "clocktick",
	faultAbort:     "abort",
}

// faultDecision is one armed decision: fire roughly once per period hits
// (pseudo-randomly spaced by the plan seed), stalling for stall when it
// is a stall.
type faultDecision struct {
	period uint64 // 0 = decision disabled
	stall  time.Duration
	hits   padUint64
}

// FaultPlan is a seeded, deterministic fault-injection schedule. Build
// one with ParseFaultPlan and hand it to an engine via EngineOptions; a
// nil plan disables injection entirely.
type FaultPlan struct {
	seed      uint64
	decisions [numFaultKinds]faultDecision
	stats     *statCounters // the engine's, where injections count (nil in a parsed plan)
}

// defaultFaultStall is the stall applied by stall sites whose plan entry
// omits an explicit duration.
const defaultFaultStall = 100 * time.Microsecond

// ParseFaultPlan parses the textual fault-plan syntax used by the CLIs
// and scenario files:
//
//	plan  := entry ("," entry)*
//	entry := "seed=" N
//	       | site ":" "1/" N                 (site fires ~once per N hits)
//	       | site ":" "1/" N ":" duration    (stall sites only)
//	site  := "precommit" | "lockhold" | "clocktick" | "abort"
//
// e.g. "seed=7,precommit:1/48:80us,lockhold:1/64:120us,abort:1/24".
// The abort site takes no duration (it forces a conflict, it does not
// stall); stall sites default to 100us when the duration is omitted.
// An empty string yields a nil plan and no error.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &FaultPlan{}
	any := false
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("stm: fault plan %q: empty entry", s)
		}
		if n, ok := strings.CutPrefix(entry, "seed="); ok {
			seed, err := strconv.ParseUint(n, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("stm: fault plan %q: bad seed %q", s, n)
			}
			p.seed = seed
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("stm: fault plan %q: entry %q is not site:1/N[:duration]", s, entry)
		}
		k := faultKind(-1)
		for i, name := range faultKindNames {
			if parts[0] == name {
				k = faultKind(i)
			}
		}
		if k < 0 {
			return nil, fmt.Errorf("stm: fault plan %q: unknown site %q (want precommit|lockhold|clocktick|abort)", s, parts[0])
		}
		ratio, ok := strings.CutPrefix(parts[1], "1/")
		if !ok {
			return nil, fmt.Errorf("stm: fault plan %q: rate %q must be of the form 1/N", s, parts[1])
		}
		period, err := strconv.ParseUint(ratio, 10, 64)
		if err != nil || period == 0 {
			return nil, fmt.Errorf("stm: fault plan %q: bad rate %q (want 1/N with N >= 1)", s, parts[1])
		}
		stall := defaultFaultStall
		if len(parts) == 3 {
			if k == faultAbort {
				return nil, fmt.Errorf("stm: fault plan %q: abort site takes no duration", s)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("stm: fault plan %q: bad duration %q", s, parts[2])
			}
			stall = d
		}
		if k == faultAbort {
			stall = 0
		}
		p.decisions[k].period = period
		p.decisions[k].stall = stall
		any = true
	}
	if !any {
		return nil, fmt.Errorf("stm: fault plan %q: no probe sites (a bare seed is not a plan)", s)
	}
	return p, nil
}

// String renders the plan back in ParseFaultPlan syntax (canonical site
// order, explicit seed first when nonzero).
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	if p.seed != 0 {
		fmt.Fprintf(&b, "seed=%d", p.seed)
	}
	for i := range p.decisions {
		s := &p.decisions[i]
		if s.period == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:1/%d", faultKindNames[i], s.period)
		if faultKind(i) != faultAbort {
			fmt.Fprintf(&b, ":%v", s.stall)
		}
	}
	return b.String()
}

// fresh returns a copy of the plan with zeroed hit counters that counts
// its injections in c. Engines call it at construction so each engine
// instance replays the plan from the start regardless of how the source
// plan has been shared.
func (p *FaultPlan) fresh(c *statCounters) *FaultPlan {
	if p == nil {
		return nil
	}
	q := &FaultPlan{seed: p.seed, stats: c}
	for i := range p.decisions {
		q.decisions[i].period = p.decisions[i].period
		q.decisions[i].stall = p.decisions[i].stall
	}
	return q
}

// decide advances the decision's hit counter and reports whether this hit
// fires, counting the injection when it does. The decision mixes (seed,
// decision, hit ordinal) through the same Fibonacci-hash fold the engines
// use elsewhere, so firings are pseudo-randomly spaced but exactly
// reproducible for a given hit sequence.
func (p *FaultPlan) decide(k faultKind) bool {
	s := &p.decisions[k]
	if s.period == 0 {
		return false
	}
	n := s.hits.Add(1)
	h := (p.seed ^ (n + uint64(k)<<56)) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 32
	if h%s.period != 0 {
		return false
	}
	p.stats.injectedFaults.Add(1)
	return true
}

// at implements probe: the forced abort, thrown as a conflict, and the
// stall the site table gives s. Serial attempts are exempt: an injected
// abort would break their irrevocability (serial.go).
func (p *FaultPlan) at(h *txHead, s site, _, _ uint64) {
	if h.serial {
		return
	}
	if s == sitePreCommit && p.decide(faultAbort) {
		throwInjectedFault()
	}
	if k := siteTable[s].stall; k != numFaultKinds && p.decide(k) {
		spinWait(p.decisions[k].stall)
	}
}
