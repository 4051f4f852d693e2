package stm

import "time"

// engineCore is everything an engine does that its protocol does not
// decide: the Var space, the statistics, the retry loop with its budget
// and backoff, the serial escalation, and the read-only snapshot loop
// with its nosnap dispatch. TL2, NOrec and OSTM embed it and supply only
// their protocol, as two pooled descriptor types: a coreTx for Atomic and
// a snapTx for RunReadOnly. The loops drive the descriptors through those
// interfaces — methods, not closures, so every path stays 0-alloc.
type engineCore struct {
	// stats leads, so the counters every commit writes share no cache
	// line with the read-mostly fields below; space, written only when a
	// cell is made, trails them.
	stats statCounters
	descs descriptors
	// gate is the serial-fallback token (nil unless SerialFallback).
	gate *serialGate
	// hook makes a new descriptor's probe hook (probe.go).
	hook func() probe
	// The call budget: TxDeadline, MaxRetries (0 = retry forever) and
	// DisableROSnapshot (RunReadOnly is Atomic).
	deadline   time.Duration
	maxRetries int
	noSnap     bool
	space      VarSpace
}

// descriptors hands the loops a pooled descriptor of the engine's types.
type descriptors interface {
	getTx() coreTx
	getSnapTx() snapTx
}

// txHead is the part of a descriptor the loops read and write. Every
// descriptor embeds it.
type txHead struct {
	st       txStats // per-attempt counters, flushed by the loop
	hook     probe   // the probe hook (nil = none; probe.go)
	serial   bool    // attempt runs under the exclusive serial token (the fault plan skips it)
	injected bool    // last abort of this call was a FaultPlan forced abort
}

// head implements coreTx and snapTx for every descriptor embedding txHead.
func (h *txHead) head() *txHead { return h }

// coreTx is an engine's Atomic descriptor as the retry loop drives it.
type coreTx interface {
	Tx
	head() *txHead
	// reset starts an attempt, reusing the descriptor's storage.
	reset()
	// commit runs the protocol's commit once fn has returned nil; false
	// is a conflict. A conflict may also be thrown (throwConflict).
	commit() bool
	// abortSelf ends an attempt that will not commit: a user abort or a
	// thrown conflict.
	abortSelf()
	// recycle returns the descriptor to its engine's pool, holding no
	// Var or value (pool.go).
	recycle()
	// sizes is the attempt's read and write set, as the trace records them.
	sizes() (reads, writes int)
	// backoffSeed decorrelates the backoff of retrying transactions.
	backoffSeed(attempt int) uint64
}

// setup fills in the core from an engine's configuration; descs is the
// engine itself.
func (c *engineCore) setup(descs descriptors, o EngineOptions) {
	c.descs = descs
	if o.SerialFallback {
		c.gate = &serialGate{}
	}
	c.hook = hookFor(o.Faults.fresh(&c.stats), o.Trace)
	c.deadline, c.maxRetries, c.noSnap = o.TxDeadline, o.MaxRetries, o.DisableROSnapshot
}

// VarSpace implements Engine.
func (c *engineCore) VarSpace() *VarSpace { return &c.space }

// Stats implements Engine.
func (c *engineCore) Stats() Stats { return c.stats.snapshot() }

// Atomic implements Engine.
func (c *engineCore) Atomic(fn func(tx Tx) error) error {
	return c.atomicFrom(fn, c.txDeadline())
}

// txDeadline starts a fresh absolute deadline per the engine config; the
// snapshot loop (snapshot.go) calls it at RunReadOnly entry so restarts
// and the validating fallback share one budget.
func (c *engineCore) txDeadline() int64 { return deadlineFor(c.deadline) }

// atomicFrom is the retry loop behind Atomic. deadline is an absolute
// nanotime bound (0 = none): Atomic derives it from TxDeadline, and the
// snapshot fallback passes the deadline its RunReadOnly call started
// with, so time burned on snapshot restarts stays on the same budget.
func (c *engineCore) atomicFrom(fn func(tx Tx) error, deadline int64) error {
	gate := c.gate
	if gate != nil {
		gate.mu.RLock()
	}
	tx := c.descs.getTx()
	h := tx.head()
	for attempt := 0; ; attempt++ {
		if cause := budgetCause(attempt, c.maxRetries, deadline, h.injected, gate != nil); cause != NoAbort {
			if gate != nil {
				return c.runSerial(tx, fn)
			}
			tx.recycle()
			return abortErrorFor(cause, &c.stats)
		}
		h.at(siteBegin, uint64(attempt), 0)
		committed, err := runAttempt(tx, h, fn)
		if h.hook != nil {
			// The outcome's payload costs an interface call (sizes), so
			// it is built only for a hook to observe.
			h.at(outcomeOf(tx, committed, err != nil, h.injected, attempt))
		}
		c.stats.flushTx(&h.st)
		if committed || err != nil {
			c.finish(tx, committed)
			if gate != nil {
				gate.mu.RUnlock()
			}
			return err
		}
		c.stats.conflictAborts.Add(1)
		spinWait(backoffDur(attempt, tx.backoffSeed(attempt)))
	}
}

// runSerial escalates tx to the irrevocable serial mode: trade the
// shared token (held by atomicFrom) for the exclusive one, then re-run
// with fault injection suppressed. With no other Atomic attempt running
// anywhere on the engine the attempt cannot be invalidated — no lock,
// sequence lock or enemy stands in its way — so the loop exits on its
// first iteration; it is a loop only for defense in depth.
func (c *engineCore) runSerial(tx coreTx, fn func(tx Tx) error) error {
	c.gate.mu.RUnlock()
	c.gate.mu.Lock()
	defer c.gate.mu.Unlock()
	c.stats.serialFallbacks.Add(1)
	h := tx.head()
	h.at(siteSerial, 0, 0)
	h.serial = true
	for {
		committed, err := runAttempt(tx, h, fn)
		c.stats.flushTx(&h.st)
		if committed || err != nil {
			h.serial = false // scrub before pooling: descriptors outlive the escalation
			c.finish(tx, committed)
			return err
		}
		c.stats.conflictAborts.Add(1)
	}
}

// finish counts a call's final attempt, a commit or a user abort, and
// recycles its descriptor.
func (c *engineCore) finish(tx coreTx, committed bool) {
	if committed {
		c.stats.commits.Add(1)
	} else {
		c.stats.userAborts.Add(1)
	}
	tx.recycle()
}

// runAttempt resets tx, executes fn once and tries to commit. It returns
// (true, nil) on commit, (false, err) on a user abort, and (false, nil)
// on a conflict (the caller retries).
func runAttempt(tx coreTx, h *txHead, fn func(tx Tx) error) (committed bool, err error) {
	tx.reset()
	h.injected = false
	defer func() {
		if r := recover(); r != nil {
			h.injected = rethrowIfNotConflict(r).injected
			tx.abortSelf()
			committed, err = false, nil
		}
	}()
	if err := fn(tx); err != nil {
		tx.abortSelf()
		return false, err
	}
	return tx.commit(), nil
}
