package stm

// The probe seam: every engine step an observer may act on is a site,
// fired by one call, tx.at(site, a, b), at that step. A descriptor's hook
// is nil unless its engine has a fault plan (fault.go) or a flight
// recorder (trace.go), so with neither a site costs one predictable
// branch and no call.

// site is one engine step a hook observes. Its payload a, b is the one
// the site's TraceKind in siteTable documents; a stall site has none.
type site uint8

const (
	siteBegin     site = iota // a validating attempt starts
	sitePreCommit             // a write commit starts, holding nothing yet
	// siteLocked: a write commit holds its commit-time locks. TL2: its
	// write set's orecs; NOrec: the sequence lock; OSTM: the Validating
	// window.
	siteLocked
	// siteClockTick: just before the commit stamp. TL2: between locking
	// and the clock tick; NOrec: before the store that releases the
	// sequence lock; OSTM: before the commit-serial bump.
	siteClockTick
	// siteValidate: a read-set validation pass. TL2 validates at commit
	// when another commit came between its begin and its stamp, NOrec
	// when the sequence lock has moved, OSTM with invisible reads at each
	// open and at commit.
	siteValidate
	// siteLockHold: the write set is written and still locked. TL2 and
	// NOrec: after writeback; OSTM: at siteLocked, as its locators carry
	// the new values from the moment they are acquired.
	siteLockHold
	siteCommit      // an attempt committed
	siteAbort       // an attempt was discarded
	siteSnapRestart // a snapshot attempt restarts
	siteSerial      // a transaction escalates to the serial token

	numSites
)

// siteTable is what each hook does at each site: the event the flight
// recorder records (numTraceKinds for none) and the stall the fault plan
// may apply (numFaultKinds for none). The plan also decides its forced
// abort at sitePreCommit, before that site's stall.
var siteTable = [numSites]struct {
	trace TraceKind
	stall faultKind
}{
	siteBegin:       {TraceBegin, numFaultKinds},
	sitePreCommit:   {numTraceKinds, faultPreCommit},
	siteLocked:      {TraceLock, numFaultKinds},
	siteClockTick:   {numTraceKinds, faultClockTick},
	siteValidate:    {TraceValidate, numFaultKinds},
	siteLockHold:    {numTraceKinds, faultLockHold},
	siteCommit:      {TraceCommit, numFaultKinds},
	siteAbort:       {TraceAbort, numFaultKinds},
	siteSnapRestart: {TraceSnapRestart, numFaultKinds},
	siteSerial:      {TraceSerial, numFaultKinds},
}

// probe is a hook on the engine's steps. h is the descriptor at the site.
type probe interface {
	at(h *txHead, s site, a, b uint64)
}

// at fires site s on the descriptor's hook.
func (h *txHead) at(s site, a, b uint64) {
	if h.hook != nil {
		h.hook.at(h, s, a, b)
	}
}

// probePair is the hook of an engine with both a recorder and a plan. No
// site has both an event and a fault, so the order does not matter.
type probePair struct {
	trace *traceShard
	plan  *FaultPlan
}

func (p probePair) at(h *txHead, s site, a, b uint64) {
	p.trace.at(h, s, a, b)
	p.plan.at(h, s, a, b)
}

// hookFor returns the maker of each new descriptor's hook from an
// engine's plan and recorder; with neither, the hook is nil. The plan is
// shared by the engine's descriptors; each descriptor gets its own ring.
func hookFor(plan *FaultPlan, rec *TraceRecorder) func() probe {
	switch {
	case rec != nil && plan != nil:
		return func() probe { return probePair{rec.tap(), plan} }
	case rec != nil:
		return func() probe { return rec.tap() }
	case plan != nil:
		return func() probe { return plan }
	}
	return func() probe { return nil }
}

// outcomeOf is the site that ends a validating attempt and its payload.
func outcomeOf(tx coreTx, committed, user, injected bool, attempt int) (site, uint64, uint64) {
	switch {
	case committed:
		reads, writes := tx.sizes()
		return siteCommit, uint64(reads), uint64(writes)
	case user:
		return siteAbort, TraceAbortUser, uint64(attempt)
	case injected:
		return siteAbort, TraceAbortInjected, uint64(attempt)
	}
	return siteAbort, TraceAbortConflict, uint64(attempt)
}
