// Package stm is a software transactional memory library for Go.
//
// It was built as the substrate for a reproduction of the STMBench7 paper
// (Guerraoui, Kapałka, Vitek; EuroSys 2007) and provides the STM designs
// that comparison needs, behind one API:
//
//   - OSTM (NewOSTM): an object-based STM in the DSTM/ASTM tradition —
//     eager ownership acquisition through locator objects, invisible reads,
//     incremental read-set validation (O(k²) over a transaction's lifetime),
//     object-level logging by copying, and pluggable contention management
//     (Polka by default). This is the "variant of ASTM" the paper evaluates,
//     including its pathologies.
//
//   - TL2 (NewTL2): a word/ownership-record STM with a global version clock,
//     lazy write buffering and commit-time locking (Dice, Shalev, Shavit;
//     DISC 2006). This is the family of "solutions already proposed" that
//     the paper cites as the fix for OSTM's validation cost.
//
//   - NOrec (NewNOrec): an STM with no per-location metadata at all — one
//     global sequence lock, value-based read-set validation with snapshot
//     extension, and lazy write buffering (Dalessandro, Spear, Scott;
//     PPoPP 2010). Reads are cheapest of the three designs; validation is
//     O(read set) per global commit and write commits serialize, which the
//     benchmark's long traversals and write-heavy workloads expose.
//
//   - Direct (NewDirect): a pass-through engine with no logging and no
//     conflict detection. It exists so that code written against the stm.Tx
//     seam can also run under external synchronization (e.g. the benchmark's
//     coarse- and medium-grained lock strategies) or single-threaded, paying
//     only an interface call per access.
//
// Each engine has one constructor, which takes EngineOptions (NewDirect
// takes nothing). The engines also form a fixed table by name (registry.go):
// New("norec") returns a fresh default-configuration engine, NewWith one
// configured with EngineOptions, and Registered lists the names. The
// benchmark's strategy layer and the engine test suites enumerate the
// table, so the conformance/stress/property tests, the comparison
// benchmarks and both command-line tools cover every engine in it.
//
// # Engine specs
//
// An engine name plus an EngineOptions value is an EngineSpec — one point
// of an (engine, configuration) sweep as a single printable value with a
// canonical ParseEngineSpec/String round trip:
//
//	norec:deadline=25ms,retries=8
//	tl2:nosnap
//
// EngineOptions is the whole configuration of an engine, and the spec is
// its only carrier above this package: the benchmark's -g flag takes one,
// scenario files apply an option list over it (EngineOptions.Apply) and
// reports print it. Every knob the sections below describe is an
// EngineOptions field with a spec key (given in brackets there), including
// the retry budget, retries=N (MaxRetries), OSTM's commitcounter ablation
// (CommitCounterHeuristic), and the one that shapes the run around the
// engine: nosnap (DisableROSnapshot), which each engine's RunReadOnly
// honours. Trace, a live recorder, is the one field without a key. See
// ParseEngineSpec for the grammar.
//
// # Programming model
//
// Shared mutable state lives in Vars (untyped) or Cells (typed wrappers).
// All access happens inside a transaction:
//
//	eng := stm.NewTL2(stm.EngineOptions{})
//	balance := stm.NewCell[int](eng.VarSpace(), 100)
//	err := eng.Atomic(func(tx stm.Tx) error {
//	    b := balance.Get(tx)
//	    balance.Set(tx, b+1)
//	    return nil
//	})
//
// A transaction function may be executed several times; it must be free of
// side effects other than Var/Cell access. Returning a non-nil error aborts
// the transaction (its writes are discarded) and Atomic returns that error.
// Conflicts are handled internally: the engine rolls back and re-executes.
//
// Values stored in Vars are treated as immutable snapshots. Reading a Var
// must never be followed by in-place mutation of the returned value; use
// Update, which gives the engine a chance to clone the value first (the
// transactional engines clone, the direct engine lets you mutate in place —
// which is exactly the lock-based/STM-based split STMBench7 needs).
//
// # The Cell contract
//
// A Cell[T] keeps a *T in its Var, so storing a value never re-boxes it, and
// every write goes through one private copy per transaction:
//
//   - Committed values are immutable. Get copies the T out; nothing a
//     reader holds can change under it.
//   - Mut(tx) returns the transaction's private copy for mutation in
//     place. The first Mut (or Update) of a cell in a transaction makes the
//     copy — by assignment for NewCell, by the cell's clone function for
//     NewCellClone — and every later one returns the same pointer: a write
//     costs one copy on first touch and nothing afterwards. Commit
//     publishes the copy and thereby freezes it; abort drops it. Under the
//     direct engine there is no copy and Mut points at the live value.
//   - Update(tx, f) is *p = f(*p) on that pointer and Set(tx, v) stores a
//     fresh value without reading the old one; neither passes a closure
//     through the Tx interface, so a capturing f does not allocate.
//   - A value and the box that publishes it are one allocation. The
//     constructors, the private copy and Set each make the value inside a
//     box, and commit publishes that box: a read loads the box and finds
//     the value beside it, and a first write allocates once. The other
//     side is retention: a *T a cell handed out keeps its box alive.
//   - A clone function has to make the copy independent only in what Mut
//     callers mutate. The benchmark's index cells clone a B-tree in O(1)
//     (internal/btree: the copy shares nodes and copies a path on write),
//     which is sound exactly because committed values are never mutated.
//   - Stats.Clones counts private copies, one per cell a transaction
//     writes through Mut or Update. A long STMBench7 update traversal
//     therefore reports tens of clones per commit, each a few words; the
//     count is the number of objects written, not a cost.
//
// # The engine contract
//
// An Engine ties together three interfaces: Engine itself (Atomic, Name,
// VarSpace, Stats), Tx (Read, Write, Update — the handle transaction
// functions receive), and, for engines with arbitration decisions to make,
// ContentionManager. A new engine must guarantee, and the shared test
// suites check:
//
//   - Atomicity and isolation. Transactions are serializable (not merely
//     snapshot-isolated: the write-skew shape must abort one of the two
//     racing transactions), and a committed transaction's writes become
//     visible all at once.
//
//   - Opacity. Even a doomed transaction attempt never observes an
//     inconsistent snapshot mid-execution: a read that can no longer be
//     part of any consistent view must abort the attempt (by panicking
//     with the internal conflict value via throwConflict) rather than
//     return stale data. Zombie transactions computing on garbage — even
//     transiently — are a contract violation.
//
//   - Rollback on user error. When the transaction function returns a
//     non-nil error, Atomic returns that error, no writes reach the Vars,
//     and the attempt counts as a user abort in Stats — not a retry.
//
//   - Panic transparency. A panic in the transaction function that is not
//     the engine's own conflict signal propagates to the Atomic caller
//     (see rethrowIfNotConflict).
//
//   - Read-your-writes. A Read after a Write/Update of the same Var in the
//     same transaction observes the transaction's own pending value.
//
//   - Clone-on-first-Update. Under a transactional engine, the callback
//     passed to Update receives a private copy (made by the clone of the
//     cell the Var belongs to) it may mutate freely; repeated Updates of one Var in one transaction
//     clone exactly once and hand the callback the same private value, and
//     a Read after an Update returns it (Cell.Mut is an Update that keeps
//     the value followed by that Read). Aborted attempts must discard the
//     clone without it ever becoming visible. Update must not require the
//     callback to return a new value: returning its argument is the
//     common case and must not allocate.
//
//   - Retry semantics. Conflict aborts are retried internally (with
//     backoff — see spinWait/backoffDur) until commit, user error, or an
//     exhausted retry budget — MaxRetries [retries=N] or the TxDeadline
//     wall-clock bound — in which case Atomic returns an error matching
//     both errors.Is(err, ErrAborted) and the specific cause
//     (ErrRetryExhausted, ErrDeadlineExceeded, ErrInjectedFault; see
//     AbortCause and the "Robustness & liveness" chapter below).
//
//   - Stats. Engines maintain the statCounters fields honestly: commits,
//     user and conflict aborts, reads/writes, validation passes, clones.
//     The harness reports them and the benchmarks derive abort rates from
//     them.
//
//   - Construction. The engine has one constructor, NewFoo(EngineOptions),
//     which reads the options that apply to its design and ignores the
//     rest, and one row in the engine table (registry.go) under its
//     Name(); the sync7 strategy table gets a matching STM row. Everything
//     downstream — the CLIs' -g flag, the comparison benchmarks, the
//     engine test suites — enumerates those tables.
//
// An engine supplies a descriptor and its protocol — read, write, validate
// and commit — and embeds engineCore (core.go) for everything else: the Var
// space, the statistics, Atomic's retry loop with its MaxRetries and
// TxDeadline budget and backoff, the escalation to serial mode, and
// RunReadOnly's snapshot loop. Its descriptor implements coreTx (reset,
// commit, abortSelf, recycle, and the set sizes and backoff seed the loop
// records and spreads with) and, for RunReadOnly, a snapshot descriptor
// implements snapTx; both embed txHead, the counters, probe hook and
// flags the loops own. TL2, NOrec and OSTM differ only there.
//
// # The descriptor pooling contract
//
// Engines recycle their transaction descriptors through a per-engine
// sync.Pool (see pool.go) so that steady-state read-only transactions are
// allocation free and small writes pay only for what they publish. An
// engine that pools descriptors must uphold three rules, which
// stm/alloc_test.go enforces for every registered engine:
//
//   - reset() reuses storage. The per-attempt reset must restore every
//     field to fresh-attempt state without reallocating: truncate read and
//     write-set slices (with truncate, which also records how long the
//     attempt made them), clear Var-to-index lookups with varIndex.reset
//     (an O(1) generation bump — never re-make a map), and keep scratch
//     buffers (like TL2's lockedMeta) at capacity.
//
//   - Published memory never returns to the pool. Anything another
//     transaction may still hold a pointer to — published value boxes,
//     OSTM locators, any txState that was installed in a locator or a
//     reader set — belongs to the attempt that published it, forever.
//     Recycling it would let a dead transaction's identity come back to
//     life under an observer. This is why a committed write costs one
//     allocation per Var, the value in the box that publishes it: published
//     snapshots are immutable, and immutable means not pooled.
//
//   - Retained references are scrubbed on put, and the scrub is bounded
//     by use. Before a descriptor goes back to the pool the engine clears
//     buffered user values and observed boxes from its slices (scrub in
//     pool.go) and resets its Var-to-index lookups, so an idle pool cannot
//     pin a committed transaction's object graph — nor, through one Var,
//     the slab of cells the Var was allocated in. It clears each slice up
//     to the longest the slice was in any attempt of the call that is
//     ending — an aborted attempt may have been longer than the
//     committing one — and no further: every slot beyond that is still
//     zero from the previous put, so the epilogue of a 3-read transaction
//     does not depend on the capacity a long traversal once left in the
//     descriptor. A pooled descriptor has no non-zero slot anywhere in
//     reads[:cap] or writes[:cap] (OSTM: writeLocs) and no key in
//     its indexes; stm/scrub_test.go checks that. Descriptors are
//     deliberately NOT returned to the pool when a user panic unwinds
//     through Atomic — mid-attempt state is garbage, and sync.Pool will
//     simply allocate a fresh descriptor next time.
//
// Per-access statistics follow the same philosophy: engines count reads,
// writes, validations and clones in plain fields of a per-descriptor
// txStats accumulator and flush them to the shared (cache-line padded)
// engine counters once per attempt, so the hot path performs no shared
// atomic read-modify-writes (see stats.go).
//
// # Read-only snapshot mode
//
// RunReadOnly(eng, fn) — or the SnapshotReader interface it dispatches to —
// executes fn as a read-only transaction served from a consistent committed
// snapshot, with no read-set logging, no commit-time validation and zero
// writes to shared metadata. It exists for STMBench7's long read-only
// traversals (T1/T6/Q6), whose Atomic-path cost is dominated by exactly
// the bookkeeping a writing transaction needs and a read-only one does
// not. The contract:
//
//   - When an engine MAY serve a snapshot: whenever it can prove, per
//     read, that the returned value belongs to one committed state. TL2
//     proves it against a sampled clock (orec unlocked, version <= rv);
//     NOrec against an unmoved sequence lock; OSTM by resolving locators
//     to committed values under an unmoved commit serial. An engine that
//     cannot prove snapshot membership cheaply should simply not
//     implement SnapshotReader — RunReadOnly falls back to Atomic, and
//     nothing downstream changes.
//
//   - When an engine MAY NOT serve one: if the proof fails mid-attempt
//     (a concurrent commit moved the clock/sequence/serial past the
//     sample, or metadata is locked), the attempt must restart rather
//     than return a possibly-torn value — opacity binds snapshot
//     transactions exactly as it binds Atomic ones. Restarts are counted
//     in Stats.SnapshotRestarts (not ConflictAborts): there is no
//     conflict episode, just a stale sample.
//
//   - Restart semantics and liveness: after a small restart budget the
//     engine falls back to its validating Atomic path, which tolerates
//     concurrent commits (NOrec extends, OSTM validates incrementally),
//     so a snapshot reader racing a steady commit stream degrades to
//     PR-4 behavior instead of starving. fn may therefore be re-executed
//     like any Atomic fn, and must be side-effect free the same way.
//     MaxRetries does not count snapshot restarts — they are snapshot
//     refreshes, not conflict retries — it binds only the fallback
//     Atomic execution, so a bounded-retry engine can never fail a
//     read-only transaction that its validating path would commit.
//
//   - fn must not write. The snapshot Tx has no write path; Write/Update
//     panic with a non-conflict error that propagates to the caller
//     (panic transparency). The benchmark enforces the matching property
//     upstream: every operation marked ops.Op.ReadOnly is tested to
//     perform zero Write/Update calls on every code path.
//
//   - Successful snapshot transactions count toward Stats.Commits and
//     additionally toward Stats.SnapshotTxs, so SnapshotShare reports
//     how much of the commit stream ran validation-free. The alloc
//     suite holds the path to 0 allocs/op steady-state on every engine.
//
//   - Off switch: under EngineOptions.DisableROSnapshot [nosnap] the
//     engine's RunReadOnly is its Atomic — one branch at entry — so the
//     validating path can be measured on the same operations.
//
// # The metadata layer: a Var is one cache line
//
// A Var holds its committed value, one ownership record (orec) of its own,
// its identity and its clone function, padded to exactly one 64-byte cache
// line. Every piece of conflict-detection metadata lives in the orec, and
// every engine reaches it as &v.own, at a fixed offset from the Var — no
// pointer load, no hashing and no branch per access (see orec.go):
//
//   - TL2's versioned lock word (orec.meta);
//   - OSTM's locator slot (orec.loc) and the writeback lock (orec.wb) that
//     orders installs against the retirement of finished locators;
//   - the visible-reads reader registry (orec.readers).
//
// The orec's padding also holds the Var's one-byte debug tag (SetTag),
// which the benchmark core uses to name a Var's synchronization domain.
//
// Conflict detection is therefore per object and collision free, and a Var
// and its metadata are one allocation: a Cell, which holds its Var by
// value, is that same allocation — NewCell makes the cell and the value in
// the box that publishes it, NewCells makes one slab for n cells and a box
// per cell, and InitCell sets up a cell inside an object of the caller's
// and allocates only the box. The
// two words a read loads — the value pointer and the lock word — are the
// Var's first 16 bytes. A Var allocated alone is one 64-byte object on one
// line; a slab cell starts at 0 or 8 bytes into a line (the allocator puts
// an 8-byte header before a pointer-carrying object of 512 bytes or more),
// so either way those 16 bytes never straddle two lines, and neighbouring
// cells do not share the line their lock words are on (TestVarLayout).
//
// OSTM installs a locator only over an empty slot, the locator covers
// exactly that slot's Var, and retiring it writes that one Var back. NOrec
// deliberately has no per-location metadata — its single sequence lock is
// the design — and the direct engine has no conflict detection.
//
// Vars are allocated from a VarSpace (one per engine; see
// Engine.VarSpace). All Vars that participate in one transaction must come
// from the same space: their ids are unique only within it and key the
// access-set indexes, and the data structure under test must be built from
// the space of the engine that will run it. TL2 locks its write set in
// write order; its bounded commit-time spin is what rules out deadlock.
//
// # Robustness & liveness
//
// The retry loop "until commit" is an optimistic promise, not a
// guarantee: under sustained conflicts, injected faults or a bounded
// MaxRetries it can fail, stall or starve. Three knobs
// (EngineOptions.TxDeadline [deadline=D], SerialFallback [serial] and
// Faults [faults=PLAN]) make those failure modes explicit, bounded and
// measurable:
//
//   - Abort causes. Every abort surfaced by Atomic satisfies
//     errors.Is(err, ErrAborted) and exactly one of the cause sentinels:
//     ErrRetryExhausted (MaxRetries attempts spent), ErrDeadlineExceeded
//     (the TxDeadline budget elapsed between attempts), or
//     ErrInjectedFault (a fault plan's forced abort with retries
//     exhausted). AbortCause(err) recovers the Cause enum for switches;
//     callers that only care that the transaction failed keep matching
//     plain ErrAborted unchanged.
//
//   - Transaction deadlines (TxDeadline). A wall-clock retry budget per
//     Atomic call. The first attempt always runs — an expired or
//     microscopic deadline degrades to "try once" — and the budget is
//     checked between attempts, never mid-attempt, so a transaction is
//     never torn down while it holds engine metadata. Deadline aborts
//     count in Stats.TimeoutAborts. RunReadOnly inherits the deadline
//     across snapshot restarts and the validating fallback: the budget
//     binds the whole logical transaction, not each internal mode.
//
//   - Irrevocable serial fallback (SerialFallback). When a transaction
//     exhausts its budget (MaxRetries, TxDeadline, or — under unbounded
//     configs — serialEscalateAfter consecutive conflict aborts), the
//     engine escalates it instead of surfacing ErrAborted: it takes the
//     engine's serial gate exclusively (new transactions wait; snapshot
//     readers are unaffected), re-runs the function as the only writer,
//     and commits on the first try. Escalations count in
//     Stats.SerialFallbacks. With the fallback on, Atomic returns
//     ErrAborted-wrapped errors never — only user errors — turning the
//     STM's probabilistic progress into a liveness guarantee at the cost
//     of brief serialization (the htm-style "serial irrevocable" escape
//     hatch). Fault probes are suppressed during serial execution so an
//     abort:1/1 plan cannot livelock the fallback itself.
//
//   - Deterministic fault injection (Faults). ParseFaultPlan("seed=7,
//     precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,
//     abort:1/24") arms three stalls and a forced conflict abort (abort
//     takes no duration; stalls default to 100µs) at the probe sites of
//     the same names (see Observability). Firing is a pure function of
//     the plan seed and a per-decision hit counter — no time, no
//     randomness — so a single-threaded fixed-op run fires bit-for-bit
//     identically across runs (Stats.InjectedFaults), which is what makes
//     chaos runs diffable and failures replayable; each engine snapshots
//     the plan at construction so shared plans never share hit counters.
//
// The knobs compose: a chaos run is typically a fault plan + a deadline
// (bounding the damage) + the serial fallback (absorbing it). The
// chaos-storm scenario (`stmbench7 -scenario chaos-storm -g tl2:serial`)
// exercises exactly that stack, and the harness reports timeout aborts,
// serial fallbacks, injected faults and open-loop shed rate alongside
// throughput; TestFaultInjectionDeterministic and, in the harness,
// TestSerialFallbackAbsorbsAborts hold the two guarantees.
//
// # Observability & telemetry
//
// The engines expose two observation surfaces, layered so the package
// keeps zero dependencies beyond the standard library: cumulative
// counters (Stats) and an attempt-lifecycle flight recorder
// (TraceRecorder, trace.go). The sampled time series and the report's
// JSON copy live in the repository's benchmark harness, built only on
// these two.
//
//   - Stats is the counter surface: one atomic counter per event class
//     (commits, conflict/user/timeout/injected aborts, reads, writes,
//     validations, clones, the snapshot and serial-fallback
//     diagnostics), collected per descriptor and flushed on transaction
//     exit, so hot paths never contend on shared cache lines.
//     Stats.Delta(before) windows a measurement; Stats.Add(other) folds
//     windows back together (multi-phase runs); Stats.Lines() renders the
//     one canonical human-readable block every report surface shares,
//     including the abort-cause breakdown — an attribution (one cause per
//     surfaced abort) over conflict aborts, not a partition of them.
//
//   - TraceRecorder is the flight recorder: fixed-capacity per-shard
//     rings of {Seq, Kind, A, B} events. Timestamps are a single atomic
//     sequence — a logical clock, not wall time — so a single-threaded
//     fixed-op run records bit-for-bit identical traces across runs; when
//     the ring wraps, the newest events win and Dropped() counts the
//     overwrites. Events() merges the shards in Seq order;
//     WriteChromeTrace exports the merged stream as Chrome Trace Event JSON
//     (load it in chrome://tracing or Perfetto: ts = Seq as microseconds,
//     tid = ring shard, one instant event per record with the kind as its
//     name), and ParseChromeTrace round-trips it for tooling.
//
// The fault plan and the recorder are two hooks on one probe seam: the
// site table (probe.go) names the engines' steps once — begin, precommit,
// locked, clocktick (just before the commit stamp), validation, lockhold
// (written, still locked), commit, abort, snapshot restart, serial — and
// each is one call in an engine. The plan stalls at precommit, lockhold
// and clocktick and aborts at precommit, never in a serial attempt; the
// recorder notes the others. With neither installed a site is one
// predicted branch; with either, budgets hold (alloc_test.go).
//
// Engines accept a recorder at construction (EngineOptions.Trace — a live
// object, so the one option without a spec key); the CLIs expose the stack
// as -trace N (attach a recorder retaining about N events), -trace-out FILE
// (dump Chrome JSON after the run), -sample D (per-interval time-series
// curves in reports and -json), and -json FILE (the report's
// machine-readable copy, every Stats counter included):
// `stmbench7 -g tl2 -sample 200ms -trace 4096 -trace-out trace.json
// -json run.json` shows all four on one run.
package stm
