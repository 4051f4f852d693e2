package stm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Decision is a contention manager's verdict when transaction "me" finds a
// Var owned by a live enemy transaction.
type Decision int

const (
	// Wait backs off briefly and re-examines the conflict.
	Wait Decision = iota
	// AbortEnemy kills the enemy transaction and takes the Var.
	AbortEnemy
	// AbortSelf discards the current attempt and retries from scratch.
	AbortSelf
)

func (d Decision) String() string {
	switch d {
	case Wait:
		return "wait"
	case AbortEnemy:
		return "abort-enemy"
	case AbortSelf:
		return "abort-self"
	default:
		return "unknown"
	}
}

// TxInfo is the view of a transaction a contention manager may consult.
type TxInfo interface {
	// Opens returns the number of objects the transaction has opened so
	// far — DSTM-family managers use it as an investment/priority proxy.
	Opens() uint64
}

// ContentionManager arbitrates write/write (and validate-time) conflicts in
// the OSTM engine. Implementations must be safe for concurrent use; they are
// consulted by many transactions at once.
//
// OnConflict is called with attempt == 0,1,2,... for successive encounters
// of the same conflict episode; managers typically Wait with growing backoff
// for a while and then pick a victim.
type ContentionManager interface {
	Name() string
	OnConflict(me, enemy TxInfo, attempt int) Decision
	// WaitDuration returns how long to back off for a Wait decision on
	// the given attempt.
	WaitDuration(me TxInfo, attempt int) time.Duration
}

// contentionManagers lists the built-in managers by Name.
var contentionManagers = []ContentionManager{Polka{}, Timid{}}

// ParseContentionManager resolves a built-in manager by its Name — the
// parser behind the engine spec's cm=NAME key.
func ParseContentionManager(name string) (ContentionManager, error) {
	var names []string
	for _, cm := range contentionManagers {
		if cm.Name() == name {
			return cm, nil
		}
		names = append(names, cm.Name())
	}
	return nil, fmt.Errorf("stm: unknown contention manager %q (want %s)", name, strings.Join(names, ", "))
}

// backoffDur computes a capped exponential backoff with a deterministic
// per-call jitter derived from a cheap hash of the inputs (no global rand,
// no per-tx RNG plumbing needed here).
func backoffDur(attempt int, salt uint64) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	base := time.Duration(1) << uint(attempt) // 1ns, 2ns, ... 64µs
	base *= 100                               // 100ns .. 6.5ms
	// xor-fold a salt for jitter in [0, base).
	h := salt * 0x9e3779b97f4a7c15
	h ^= h >> 29
	jitter := time.Duration(h % uint64(base+1))
	return base/2 + jitter/2
}

// Polka is the manager STMBench7's evaluation used: it combines Karma's
// investment-based priorities with randomized exponential backoff
// (Scherer & Scott, PODC 2005). "me" waits up to (enemy.Opens - me.Opens)
// intervals of increasing length, then aborts the enemy.
type Polka struct{}

func (Polka) Name() string { return "polka" }

func (Polka) OnConflict(me, enemy TxInfo, attempt int) Decision {
	diff := int64(enemy.Opens()) - int64(me.Opens())
	if diff < 0 {
		diff = 0
	}
	if int64(attempt) > diff {
		return AbortEnemy
	}
	return Wait
}

func (Polka) WaitDuration(me TxInfo, attempt int) time.Duration {
	return backoffDur(attempt, me.Opens()+uint64(attempt)<<32)
}

// Timid always aborts itself. Guarantees the enemy progresses; the retrying
// transaction relies on the engine's inter-attempt backoff to get through.
type Timid struct{}

func (Timid) Name() string { return "timid" }

func (Timid) OnConflict(me, enemy TxInfo, attempt int) Decision { return AbortSelf }

func (Timid) WaitDuration(TxInfo, int) time.Duration { return 0 }

// Backoff tiering thresholds for spinWait. Below spinOnlyMax a wait is
// shorter than a scheduler round trip, so burning it in place is the
// right call; between the thresholds the waiter yields the processor on
// every clock check so a stalled lock holder sharing the P can run;
// above spinSleepMin the runtime timer is cheap relative to the wait.
const (
	spinOnlyMax  = 5 * time.Microsecond
	spinSleepMin = 20 * time.Microsecond
)

// spinWait burns roughly d in place for very short waits, yields between
// clock checks for mid-length waits, and sleeps for long ones.
// Contention-manager waits are usually sub-microsecond; conflict-retry
// backoff grows through all three tiers. The yield tier is a liveness
// requirement, not a tuning nicety: on GOMAXPROCS=1 a waiter that
// busy-spins a mid-length backoff window can sit between a stalled lock
// holder and the processor it needs to finish releasing its locks —
// runtime.Gosched on every check keeps the holder schedulable (the
// regression test injects exactly that stall via a FaultPlan
// lock-holder pause).
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	switch {
	case d < spinOnlyMax:
		deadline := nanotime() + int64(d)
		for nanotime() < deadline {
			spinHint()
		}
	case d < spinSleepMin:
		deadline := nanotime() + int64(d)
		for nanotime() < deadline {
			yield()
		}
	default:
		time.Sleep(d)
	}
}

// nanotime is a monotonic clock read; time.Now is fine here (it uses the
// monotonic clock internally and costs ~20ns).
var nanobase = time.Now()

func nanotime() int64 { return int64(time.Since(nanobase)) }

// spinHint is a CPU-relax hint. Pure Go: one atomic add the compiler cannot
// elide, which is the whole delay of a spin step. It never yields, so the
// spin budget of the loop that calls it (tl2ReadLockSpins,
// tl2CommitLockSpins, a snapshot read's, spinWait's deadline) is the only
// bound on a spin; NOrec's sampleSeq has none and waits out a write-back.
var spinCounter atomic.Uint64

func spinHint() { spinCounter.Add(1) }
