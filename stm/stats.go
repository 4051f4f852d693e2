package stm

import (
	"fmt"
	"sync/atomic"
)

// Stats are cumulative engine counters. They are approximate under
// concurrency (relaxed atomic adds) but race-free.
type Stats struct {
	// Commits is the number of transactions that committed.
	Commits uint64
	// UserAborts is the number of transactions whose function returned an
	// error (logical failure; writes discarded, no retry).
	UserAborts uint64
	// ConflictAborts is the number of attempts discarded due to conflicts
	// (each such attempt is followed by a retry unless the budget ran out).
	ConflictAborts uint64
	// Reads and Writes count Var accesses across all attempts.
	Reads  uint64
	Writes uint64
	// Validations counts individual read-set entry re-checks (the O(k²)
	// cost center of invisible-read STMs on long traversals).
	Validations uint64
	// Clones counts private copies made for Update calls: one per Var with
	// a clone function that a transaction attempt writes through Update —
	// every cell written through Cell.Mut or Cell.Update.
	Clones uint64
	// EnemyAborts counts transactions killed by a contention manager
	// decision in some other transaction.
	EnemyAborts uint64
	// LockFailures counts TL2 commit-time lock acquisition failures.
	LockFailures uint64
	// FalseConflicts estimates how many TL2 conflicts were artifacts of
	// striped orec granularity: the conflicting metadata belonged to a
	// different Var that shares the stripe. Attribution is best-effort
	// (TL2 records one writer Var per locked orec) and always 0 under
	// object granularity, where the mapping is collision free, and on
	// the engines that ignore Granularity. Only the validating path
	// attributes: a snapshot attempt (RunReadOnly) never does, but the
	// Atomic transaction RunReadOnly falls back to after
	// snapRestartBudget restarts is an ordinary transaction and may.
	FalseConflicts uint64
	// SnapshotTxs counts read-only transactions served by the
	// validation-free snapshot path (RunReadOnly on engines implementing
	// SnapshotReader). Snapshot transactions also count toward Commits,
	// so SnapshotTxs/Commits is the share of commits that skipped
	// read-set logging and validation entirely.
	SnapshotTxs uint64
	// SnapshotRestarts counts snapshot-mode attempt restarts — TL2 rv
	// refreshes, NOrec epoch retries, OSTM commit-serial retries. They
	// are tracked separately from ConflictAborts: a restart is the
	// snapshot path re-proving its snapshot, not a conflict episode on
	// the validating path (and it never involves another transaction's
	// metadata, so it can never count toward FalseConflicts either).
	SnapshotRestarts uint64
	// VersionReads counts snapshot reads served from an older committed
	// version on a Var's multi-version chain (Versions > 1) — each is a
	// read that would have restarted the whole attempt under the
	// single-version configuration. Always 0 at Versions <= 1.
	VersionReads uint64
	// VersionMisses counts snapshot chain walks that fell off a truncated
	// version chain (the reader's timestamp was older than the oldest
	// retained version); each miss restarts the attempt and so also
	// counts toward SnapshotRestarts.
	VersionMisses uint64
	// VersionBytes is the cumulative size of superseded version boxes
	// retained by commit-time chain linking (the chain nodes themselves,
	// not the user values they pin) — the space side of the restarts-for-
	// space trade. Instantaneous retention is bounded by
	// (Versions-1) * liveVars * sizeof(box). Always 0 at Versions <= 1.
	VersionBytes uint64
	// TimeoutAborts counts Atomic calls that gave up because their
	// TxDeadline wall-clock budget expired (the ErrDeadlineExceeded
	// returns). Always 0 when TxDeadline is unset or SerialFallback is
	// on — escalation replaces the abort.
	TimeoutAborts uint64
	// SerialFallbacks counts transactions that escalated to the
	// irrevocable serial token after retry/deadline pressure crossed the
	// threshold. Each one is a transaction that would otherwise have
	// surfaced ErrAborted (or retried unboundedly).
	SerialFallbacks uint64
	// InjectedFaults counts FaultPlan probe firings — stalls applied and
	// conflicts forced. Deterministic for a given plan seed and probe-hit
	// sequence; always 0 with no plan installed.
	InjectedFaults uint64
}

// padUint64 is an atomic counter padded out to its own cache line so that
// concurrent transactions flushing different counters of the same engine
// never false-share. 64 bytes covers every mainstream amd64/arm64 part.
type padUint64 struct {
	atomic.Uint64
	_ [56]byte
}

// statCounters is the internal, atomically updated representation. Engines
// do not touch the per-access counters (reads, writes, validations, clones,
// enemyAborts, lockFailures) directly on the hot path: each transaction
// accumulates them in plain txStats fields and flushes once per attempt via
// flushTx, so a Read costs a register increment instead of a contended
// atomic RMW.
type statCounters struct {
	commits        padUint64
	userAborts     padUint64
	conflictAborts padUint64
	reads          padUint64
	writes         padUint64
	validations    padUint64
	clones         padUint64
	enemyAborts    padUint64
	lockFailures   padUint64
	falseConflicts padUint64
	// Snapshot-path counters. Bumped once per RunReadOnly outcome (commit
	// or restart) directly — same frequency as commits/conflictAborts —
	// so they need no txStats batching.
	snapshotTxs      padUint64
	snapshotRestarts padUint64
	// Multi-version counters (mvcc.go). Per-read / per-write frequency,
	// so they batch through txStats like reads and writes do.
	versionReads  padUint64
	versionMisses padUint64
	versionBytes  padUint64
	// Robustness counters (serial.go, fault.go). Give-up / escalation /
	// injection frequency — far below per-attempt — so they are bumped
	// directly, no txStats batching.
	timeoutAborts   padUint64
	serialFallbacks padUint64
	injectedFaults  padUint64
}

// txStats is the per-transaction accumulator for the high-frequency
// counters. It lives in plain (non-atomic) fields inside the transaction
// descriptor — only the owning goroutine touches it — and is drained into
// the engine's shared statCounters by flushTx at the end of every attempt.
type txStats struct {
	reads          uint64
	writes         uint64
	validations    uint64
	clones         uint64
	enemyAborts    uint64
	lockFailures   uint64
	falseConflicts uint64
	versionReads   uint64
	versionMisses  uint64
	versionBytes   uint64
}

// flushTx adds a transaction's locally accumulated counters to the shared
// totals (one atomic add per nonzero counter, instead of one per access)
// and zeroes the accumulator for the next attempt.
func (c *statCounters) flushTx(s *txStats) {
	if s.reads != 0 {
		c.reads.Add(s.reads)
		s.reads = 0
	}
	if s.writes != 0 {
		c.writes.Add(s.writes)
		s.writes = 0
	}
	if s.validations != 0 {
		c.validations.Add(s.validations)
		s.validations = 0
	}
	if s.clones != 0 {
		c.clones.Add(s.clones)
		s.clones = 0
	}
	if s.enemyAborts != 0 {
		c.enemyAborts.Add(s.enemyAborts)
		s.enemyAborts = 0
	}
	if s.lockFailures != 0 {
		c.lockFailures.Add(s.lockFailures)
		s.lockFailures = 0
	}
	if s.falseConflicts != 0 {
		c.falseConflicts.Add(s.falseConflicts)
		s.falseConflicts = 0
	}
	if s.versionReads != 0 {
		c.versionReads.Add(s.versionReads)
		s.versionReads = 0
	}
	if s.versionMisses != 0 {
		c.versionMisses.Add(s.versionMisses)
		s.versionMisses = 0
	}
	if s.versionBytes != 0 {
		c.versionBytes.Add(s.versionBytes)
		s.versionBytes = 0
	}
}

// snapshot returns the current totals. Each counter is loaded atomically,
// but the loads are not one atomic group: a snapshot taken while
// transactions are in flight can pair, say, a commit with only part of that
// commit's reads, and per-access counters batched in transaction-local
// txStats accumulators are invisible until their attempt flushes. Callers
// (the harness, the benchmarks) treat Stats as what it is documented to be —
// an approximate, monotone progress report — so no seqlock is warranted;
// quiescent snapshots (no concurrent Atomic calls) are exact.
func (c *statCounters) snapshot() Stats {
	return Stats{
		Commits:          c.commits.Load(),
		UserAborts:       c.userAborts.Load(),
		ConflictAborts:   c.conflictAborts.Load(),
		Reads:            c.reads.Load(),
		Writes:           c.writes.Load(),
		Validations:      c.validations.Load(),
		Clones:           c.clones.Load(),
		EnemyAborts:      c.enemyAborts.Load(),
		LockFailures:     c.lockFailures.Load(),
		FalseConflicts:   c.falseConflicts.Load(),
		SnapshotTxs:      c.snapshotTxs.Load(),
		SnapshotRestarts: c.snapshotRestarts.Load(),
		VersionReads:     c.versionReads.Load(),
		VersionMisses:    c.versionMisses.Load(),
		VersionBytes:     c.versionBytes.Load(),
		TimeoutAborts:    c.timeoutAborts.Load(),
		SerialFallbacks:  c.serialFallbacks.Load(),
		InjectedFaults:   c.injectedFaults.Load(),
	}
}

// Attempts returns the total number of transaction attempts recorded.
func (s Stats) Attempts() uint64 {
	return s.Commits + s.UserAborts + s.ConflictAborts
}

// AbortRate returns the fraction of attempts that were discarded due to
// conflicts (0 when there were no attempts).
func (s Stats) AbortRate() float64 {
	a := s.Attempts()
	if a == 0 {
		return 0
	}
	return float64(s.ConflictAborts) / float64(a)
}

// FalseConflictRate returns the fraction of conflict aborts attributed to
// orec striping rather than a genuine data conflict (0 when there were no
// conflict aborts; always 0 under object granularity). Attribution is
// best-effort — see the FalseConflicts field.
func (s Stats) FalseConflictRate() float64 {
	if s.ConflictAborts == 0 {
		return 0
	}
	r := float64(s.FalseConflicts) / float64(s.ConflictAborts)
	if r > 1 {
		r = 1
	}
	return r
}

// SnapshotShare returns the fraction of commits served by the read-only
// snapshot path (0 when there were no commits).
func (s Stats) SnapshotShare() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.SnapshotTxs) / float64(s.Commits)
}

// Add returns the fieldwise sum of two deltas. It is how multi-window
// consumers (scenario phase reports, sweep aggregations) fold per-window
// Delta results into one total without reaching into every field.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Commits:          s.Commits + o.Commits,
		UserAborts:       s.UserAborts + o.UserAborts,
		ConflictAborts:   s.ConflictAborts + o.ConflictAborts,
		Reads:            s.Reads + o.Reads,
		Writes:           s.Writes + o.Writes,
		Validations:      s.Validations + o.Validations,
		Clones:           s.Clones + o.Clones,
		EnemyAborts:      s.EnemyAborts + o.EnemyAborts,
		LockFailures:     s.LockFailures + o.LockFailures,
		FalseConflicts:   s.FalseConflicts + o.FalseConflicts,
		SnapshotTxs:      s.SnapshotTxs + o.SnapshotTxs,
		SnapshotRestarts: s.SnapshotRestarts + o.SnapshotRestarts,
		VersionReads:     s.VersionReads + o.VersionReads,
		VersionMisses:    s.VersionMisses + o.VersionMisses,
		VersionBytes:     s.VersionBytes + o.VersionBytes,
		TimeoutAborts:    s.TimeoutAborts + o.TimeoutAborts,
		SerialFallbacks:  s.SerialFallbacks + o.SerialFallbacks,
		InjectedFaults:   s.InjectedFaults + o.InjectedFaults,
	}
}

// Lines renders the canonical human-readable stat block shared by every
// report surface (harness reports, scenario comparisons, CLI summaries),
// one line per subsystem. The headline and abort-cause lines are always
// present; subsystem lines (snapshot path, multi-version chains, orec
// striping, serial fallback) appear only when their
// counters are live, so quiet configurations stay quiet.
//
// The abort-cause breakdown is attribution, not a partition: enemy kills
// and injected conflicts are also counted in ConflictAborts, and timeout
// aborts are final give-ups after their attempts' conflicts were already
// tallied. The line answers "why did work get thrown away", not "what do
// the aborts sum to".
func (s Stats) Lines() []string {
	lines := []string{
		fmt.Sprintf("stm: commits %d, aborts %d (%.1f%% of attempts), user aborts %d, reads %d, writes %d, validations %d, clones %d",
			s.Commits, s.ConflictAborts, 100*s.AbortRate(), s.UserAborts,
			s.Reads, s.Writes, s.Validations, s.Clones),
		fmt.Sprintf("abort causes: conflict %d, enemy kill %d, timeout %d, injected %d, lock-failure %d",
			s.ConflictAborts, s.EnemyAborts, s.TimeoutAborts, s.InjectedFaults, s.LockFailures),
	}
	if s.SnapshotTxs > 0 || s.SnapshotRestarts > 0 {
		lines = append(lines, fmt.Sprintf("ro-snapshot: %d txs (%.1f%% of commits), %d restarts",
			s.SnapshotTxs, 100*s.SnapshotShare(), s.SnapshotRestarts))
	}
	if s.VersionReads > 0 || s.VersionMisses > 0 || s.VersionBytes > 0 {
		lines = append(lines, fmt.Sprintf("multiversion: %d chain reads, %d chain misses, %d bytes retained",
			s.VersionReads, s.VersionMisses, s.VersionBytes))
	}
	if s.FalseConflicts > 0 {
		lines = append(lines, fmt.Sprintf("orec striping: %d false conflicts (%.1f%% of conflict aborts)",
			s.FalseConflicts, 100*s.FalseConflictRate()))
	}
	if s.SerialFallbacks > 0 {
		lines = append(lines, fmt.Sprintf("serial fallback: %d escalations", s.SerialFallbacks))
	}
	return lines
}

// Delta returns the counter increments from prev to s, fieldwise. Stats
// are cumulative over an engine's lifetime; callers that share one engine
// across several measurement windows (scenario phases, thread sweeps)
// snapshot before and after and subtract, so each window reports only its
// own activity. prev must be an earlier snapshot of the same engine.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Commits:          s.Commits - prev.Commits,
		UserAborts:       s.UserAborts - prev.UserAborts,
		ConflictAborts:   s.ConflictAborts - prev.ConflictAborts,
		Reads:            s.Reads - prev.Reads,
		Writes:           s.Writes - prev.Writes,
		Validations:      s.Validations - prev.Validations,
		Clones:           s.Clones - prev.Clones,
		EnemyAborts:      s.EnemyAborts - prev.EnemyAborts,
		LockFailures:     s.LockFailures - prev.LockFailures,
		FalseConflicts:   s.FalseConflicts - prev.FalseConflicts,
		SnapshotTxs:      s.SnapshotTxs - prev.SnapshotTxs,
		SnapshotRestarts: s.SnapshotRestarts - prev.SnapshotRestarts,
		VersionReads:     s.VersionReads - prev.VersionReads,
		VersionMisses:    s.VersionMisses - prev.VersionMisses,
		VersionBytes:     s.VersionBytes - prev.VersionBytes,
		TimeoutAborts:    s.TimeoutAborts - prev.TimeoutAborts,
		SerialFallbacks:  s.SerialFallbacks - prev.SerialFallbacks,
		InjectedFaults:   s.InjectedFaults - prev.InjectedFaults,
	}
}
