// Package harness is the STMBench7 benchmark driver (§2.3 and Appendix A):
// it builds the data structure, runs a user-specified number of threads for
// a fixed duration (or operation count), has every thread draw operations
// from the Table 2 ratio distribution, collects per-thread measurements
// locally, merges them at the end, and formats the Appendix-A report
// (parameters, optional TTC histograms, detailed per-operation results,
// sample errors, summary). Every run records each operation's time to
// completion in a fixed log-linear Histogram (and, open-loop, each
// response time), so the report's percentiles and its -json copy need no
// run option.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// Options configures one benchmark run. Zero values get defaults from
// Defaults.
type Options struct {
	// Params sizes the data structure.
	Params core.Params
	// Seed makes the build and the operation streams deterministic.
	Seed uint64
	// Threads is the number of concurrent worker threads (-t).
	Threads int
	// Duration is the benchmark length (-l). Ignored when MaxOps > 0.
	Duration time.Duration
	// MaxOps, when positive, runs exactly MaxOps operations per thread
	// instead of a fixed duration (used by tests and benches).
	MaxOps int
	// Workload is the -w workload type.
	Workload ops.Workload
	// LongTraversals / StructureMods enable the long-traversal and
	// structure-modification categories. The zero value runs neither, and
	// Defaults does not set them; the CLI (--no-traversals / --no-sms
	// turn them off) and the facade's quick start set both.
	LongTraversals bool
	StructureMods  bool
	// Reduced applies the §5 reduced operation set (Figure 6, Table 3).
	Reduced bool
	// Strategy is the synchronization strategy (see sync7.Strategies):
	// coarse, medium, ostm, tl2, norec or direct.
	Strategy string
	// Engine configures the stm engine behind an STM strategy — with
	// Strategy, the two halves of the -g engine spec (stm.EngineSpec; see
	// stm.ParseEngineSpec for the keys). Ignored by the lock strategies
	// and direct. Engine.Trace installs a transaction flight recorder
	// (-trace): dump it after the run with
	// stm.TraceRecorder.WriteChromeTrace (-trace-out).
	Engine stm.EngineOptions
	// CheckInvariants runs the full structural invariant checker after
	// the run and fails the run on violations.
	CheckInvariants bool
	// CategoryWeights overrides the Table 2 category shares with
	// arbitrary relative weights (see ops.Profile.CategoryWeights).
	// Nil keeps the paper's mix. Scenario phases use this.
	CategoryWeights map[ops.Category]float64
	// SkewTheta, when nonzero, installs a YCSB-style zipfian hotspot
	// (exponent theta in (0, 1); larger is more skewed) over the
	// composite-part id domain for the duration of the run: random-id
	// operations concentrate on a hot subset of composite parts, and
	// atomic-part draws follow their owning composite's rank so both id
	// domains hit the same hot objects. 0 keeps uniform draws.
	SkewTheta float64
	// SkewShift rotates the start of the hotspot to the given fraction
	// of the composite-part id domain, in [0, 1) — successive phases
	// with different shifts migrate the hotspot across the structure.
	SkewShift float64
	// ShedAfter is the open-loop lateness budget (-shed-after): an
	// arrival still unserved ShedAfter past its due time is shed —
	// counted in Result.ShedOps, never executed — instead of stretching
	// the queue further. Zero = never shed on lateness. Requires
	// OpenLoop.
	ShedAfter time.Duration
	// QueueBound caps the open-loop arrival backlog (-queue-bound): when
	// more than QueueBound later arrivals are already due, the arrival at
	// the head is shed. Zero = unbounded. Requires OpenLoop.
	QueueBound int
	// SampleInterval, when positive, runs a Sampler alongside
	// the benchmark (-sample): every interval it snapshots the engine
	// counters and the live driver progress and appends one per-interval
	// point to Result.Series — the run's throughput/abort-rate/shed-rate
	// time series. Zero = no sampling.
	SampleInterval time.Duration
	// OpenLoop replaces the closed per-thread loop with an open-loop
	// driver: operations arrive on a deterministic Poisson schedule at
	// ArrivalRate ops/s in total, Threads workers serve the queue, and
	// response time is measured from the *scheduled* arrival, so
	// queueing delay is included (coordinated-omission safe). See
	// Result.Response.
	OpenLoop bool
	// ArrivalRate is the open-loop offered load in operations per
	// second, across all workers. Required (> 0) when OpenLoop is set.
	ArrivalRate float64
}

// Defaults fills in zero fields: 1 thread, 1 s, coarse, Tiny structure,
// seed 42. The zero Workload is read-dominated, and LongTraversals and
// StructureMods stay as given (false runs neither category). A negative
// count or length is left as it is, for Validate to reject.
func Defaults(o Options) Options {
	if o.Params == (core.Params{}) {
		o.Params = core.Tiny()
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Duration == 0 && o.MaxOps == 0 {
		o.Duration = time.Second
	}
	if o.Strategy == "" {
		o.Strategy = "coarse"
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Profile derives the operation mix from the options.
func (o Options) Profile() ops.Profile {
	return ops.Profile{
		Workload:        o.Workload,
		LongTraversals:  o.LongTraversals,
		StructureMods:   o.StructureMods,
		Reduced:         o.Reduced,
		CategoryWeights: o.CategoryWeights,
	}
}

// Validate rejects option combinations the drivers cannot honor: a
// negative length or thread count, the mix (ops.Profile.Validate), the
// skew range and the open-loop settings. Engine options are validated
// where the executor is built (sync7.New).
func (o Options) Validate() error {
	switch {
	case o.Threads < 0:
		return fmt.Errorf("harness: negative threads %d", o.Threads)
	case o.Duration < 0:
		return fmt.Errorf("harness: negative duration %v", o.Duration)
	case o.MaxOps < 0:
		return fmt.Errorf("harness: negative max_ops %d", o.MaxOps)
	}
	if err := o.Profile().Validate(); err != nil {
		return err
	}
	if o.SkewTheta < 0 || o.SkewTheta >= 1 {
		return fmt.Errorf("harness: SkewTheta %v outside [0, 1)", o.SkewTheta)
	}
	if o.SkewShift < 0 || o.SkewShift >= 1 {
		return fmt.Errorf("harness: SkewShift %v outside [0, 1)", o.SkewShift)
	}
	if o.OpenLoop && o.ArrivalRate <= 0 {
		return fmt.Errorf("harness: OpenLoop needs ArrivalRate > 0, got %v", o.ArrivalRate)
	}
	if !o.OpenLoop && o.ArrivalRate != 0 {
		return fmt.Errorf("harness: ArrivalRate %v on a closed-loop run; set OpenLoop", o.ArrivalRate)
	}
	if o.ShedAfter < 0 {
		return fmt.Errorf("harness: negative ShedAfter %v", o.ShedAfter)
	}
	if o.QueueBound < 0 {
		return fmt.Errorf("harness: negative QueueBound %d", o.QueueBound)
	}
	if o.SampleInterval < 0 {
		return fmt.Errorf("harness: negative SampleInterval %v", o.SampleInterval)
	}
	if !o.OpenLoop && (o.ShedAfter > 0 || o.QueueBound > 0) {
		return fmt.Errorf("harness: ShedAfter/QueueBound shed overload from the open-loop queue; set OpenLoop (closed-loop workers have no queue to shed from)")
	}
	return nil
}

// OpResult is the merged measurement for one operation type.
type OpResult struct {
	Name      string
	Category  ops.Category
	ReadOnly  bool
	Succeeded int64
	Failed    int64
	MaxTTC    time.Duration
	// TTC holds the times to completion of the successful executions;
	// Succeeded and MaxTTC are its exact count and max.
	TTC Histogram
}

// Attempted returns successes plus failures.
func (r *OpResult) Attempted() int64 { return r.Succeeded + r.Failed }

// Result is a completed benchmark run.
type Result struct {
	Options Options
	Elapsed time.Duration
	// PerOp holds one entry per operation enabled in the profile.
	PerOp map[string]*OpResult
	// Expected is the expected ratio per operation (from Table 2).
	Expected map[string]float64
	// EngineStats holds the stm engine counters (commits, aborts,
	// validations, clones...) accumulated DURING the run: the counters
	// are snapshotted before and after and the delta reported, so
	// several runs (scenario phases) sharing one executor each see only
	// their own activity.
	EngineStats stm.Stats
	// Arrivals is the number of scheduled arrivals actually issued by
	// an open-loop run (0 for closed-loop runs). Every issued arrival is
	// either executed exactly once or shed, so
	// Arrivals == TotalAttempted + ShedOps.
	Arrivals int64
	// ShedOps is the number of open-loop arrivals shed by the overload
	// policy (Options.ShedAfter / Options.QueueBound) instead of
	// executed. Always 0 for closed-loop runs.
	ShedOps int64
	// Response is the open-loop response-time histogram: completion
	// minus *scheduled* arrival, so an operation that waited behind a
	// busy worker is charged its queueing delay, which a closed loop
	// cannot measure (coordinated omission). Empty for closed-loop runs.
	Response Histogram
	// LiveHeapBytes is the heap still reachable after the run, read once
	// every timed window has closed, with the structure and executor
	// still reachable: HeapAlloc after two forced collections. It counts
	// this Result too, about 5 KB per operation in the mix.
	LiveHeapBytes uint64
	// Series is the time-series curve sampled during the run at
	// Options.SampleInterval cadence (nil when sampling was off): one
	// point per interval with throughput, abort rate, snapshot restarts
	// and shed rate over that interval.
	Series []SamplePoint
}

// liveProgress publishes in-flight driver progress for the Sampler:
// operations completed successfully and arrivals shed so far. The
// thread-local records merge only after the run ends, so without these two
// atomics a mid-run sampler would see engine counters move while the
// driver appears frozen.
type liveProgress struct {
	ops   atomic.Int64
	sheds atomic.Int64
}

// threadStats is the per-thread measurement record; merged at the end per
// §4 ("Each thread registers locally its performance measurements").
type threadStats struct {
	// ops holds one record per operation, indexed by ops.Op.Index.
	ops []opRecord
	// resp is the open-loop response-time histogram; empty in closed-loop
	// runs.
	resp Histogram
	// sheds counts open-loop arrivals this worker shed instead of
	// executing.
	sheds int64
}

// opRecord is one thread's record of one operation: the logical failures
// and the successes' times to completion.
type opRecord struct {
	failed int64
	ttc    Histogram
}

// newThreadStats allocates the records of n workers, so that no timed
// window pays for them.
func newThreadStats(n int) []*threadStats {
	sts := make([]*threadStats, n)
	for i := range sts {
		sts[i] = &threadStats{ops: make([]opRecord, len(ops.All()))}
	}
	return sts
}

// recordOutcome books one executed operation into the thread-local record.
// Non-logical errors are returned for the worker to abort on.
func (st *threadStats) recordOutcome(op *ops.Op, ttc time.Duration, err error) error {
	switch {
	case err == nil:
		st.ops[op.Index].ttc.Record(ttc)
	// errors.Is, not ==: stm aborts arrive as cause-wrapped singletons
	// (ErrRetryExhausted, ErrDeadlineExceeded, ErrInjectedFault).
	case errors.Is(err, ops.ErrFailed) || errors.Is(err, stm.ErrAborted):
		st.ops[op.Index].failed++
	default:
		return fmt.Errorf("harness: %s: %w", op.Name, err)
	}
	return nil
}

// Setup builds the executor and the data structure for the options — split
// out so callers that run several measurements on one structure (thread
// sweeps, benches) can reuse the build. Every configuration error is
// reported before the structure is built.
func Setup(o Options) (sync7.Executor, *core.Structure, error) {
	o = Defaults(o)
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	ex, err := sync7.New(sync7.Config{
		Strategy:      o.Strategy,
		NumAssmLevels: o.Params.NumAssmLevels,
		Engine:        o.Engine,
	})
	if err != nil {
		return nil, nil, err
	}
	s, err := core.Build(o.Params, o.Seed, ex.Engine().VarSpace())
	if err != nil {
		return nil, nil, err
	}
	return ex, s, nil
}

// Run executes the benchmark.
func Run(o Options) (*Result, error) {
	ex, s, err := Setup(o)
	if err != nil {
		return nil, err
	}
	return RunOn(o, ex, s)
}

// RunOn executes the benchmark on a pre-built structure (callers that sweep
// thread counts over identical structures build once per point themselves).
// It installs the contention-skew samplers for the duration of the run,
// dispatches to the closed- or open-loop driver, and reports the engine
// counters as a delta over the run (per-phase stats reset for scenarios).
func RunOn(o Options, ex sync7.Executor, s *core.Structure) (*Result, error) {
	o = Defaults(o)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.SkewTheta != 0 {
		comp, atom := skewSamplers(s.P, o.SkewTheta, o.SkewShift)
		s.SetIDSamplers(comp, atom)
		defer s.SetIDSamplers(nil, nil)
	}

	before := ex.Engine().Stats()
	live := &liveProgress{}
	var sampler *Sampler
	if o.SampleInterval > 0 {
		// The sampler's deltas must cover only this run's activity, so its
		// stats source subtracts the pre-run baseline (phases share one
		// engine).
		sampler = NewSampler(o.SampleInterval,
			func() stm.Stats { return ex.Engine().Stats().Delta(before) },
			live.ops.Load, live.sheds.Load)
		sampler.Start()
	}
	var res *Result
	var err error
	if o.OpenLoop {
		res, err = runOpenLoop(o, ex, s, live)
	} else {
		res, err = runClosedLoop(o, ex, s, live)
	}
	if sampler != nil {
		series := sampler.Stop()
		if res != nil {
			res.Series = series
		}
	}
	if err != nil {
		return nil, err
	}
	res.EngineStats = ex.Engine().Stats().Delta(before)

	if o.CheckInvariants {
		if err := ex.Engine().Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
			return nil, fmt.Errorf("harness: post-run invariant violation: %w", err)
		}
	}
	res.LiveHeapBytes = liveHeapBytes()
	// The structure and the engine are what the reading is of: keep them
	// reachable until it is taken.
	runtime.KeepAlive(ex)
	runtime.KeepAlive(s)
	return res, nil
}

// liveHeapBytes is the heap still reachable after two forced collections;
// the second empties the sync.Pool victim caches the first one filled.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// skewSamplers builds the zipfian hotspot samplers for the two skewed id
// domains. Composite ranks map to ids rotated by shift; atomic-part draws
// pick a composite by the same zipfian and then a uniform part within it,
// so both domains concentrate on the same hot composite parts.
func skewSamplers(p core.Params, theta, shift float64) (comp, atom core.IDSampler) {
	nComp := p.MaxCompParts()
	z := rng.NewZipf(nComp, theta)
	off := uint64(shift * float64(nComp))
	per := uint64(p.NumAtomicPerComp)
	comp = func(r *rng.Rand, n uint64) uint64 {
		return (z.Next(r) + off) % n
	}
	atom = func(r *rng.Rand, n uint64) uint64 {
		c := (z.Next(r) + off) % nComp
		return (c*per + r.Uint64n(per)) % n
	}
	return comp, atom
}

// runClosedLoop is the paper's driver: each of Threads workers draws and
// executes operations back to back until the duration elapses (or for
// exactly MaxOps operations each).
func runClosedLoop(o Options, ex sync7.Executor, s *core.Structure, live *liveProgress) (*Result, error) {
	profile := o.Profile()
	picker := ops.NewPicker(profile)

	var stop atomic.Bool
	var wg sync.WaitGroup
	perThread := newThreadStats(o.Threads)
	errCh := make(chan error, o.Threads)

	seedRng := rng.New(o.Seed ^ 0xb7b7b7b7)
	threadSeeds := make([]uint64, o.Threads)
	for i := range threadSeeds {
		threadSeeds[i] = seedRng.Uint64()
	}

	start := time.Now()
	for t := 0; t < o.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			st := perThread[t]
			r := rng.New(threadSeeds[t])
			for i := 0; o.MaxOps <= 0 || i < o.MaxOps; i++ {
				if o.MaxOps <= 0 && stop.Load() {
					return
				}
				op := picker.Pick(r)
				t0 := time.Now()
				_, err := ex.Execute(op, s, r)
				if err == nil {
					live.ops.Add(1)
				}
				if err := st.recordOutcome(op, time.Since(t0), err); err != nil {
					errCh <- err
					return
				}
			}
		}(t)
	}

	if o.MaxOps <= 0 {
		timer := time.NewTimer(o.Duration)
		<-timer.C
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	return newResult(o, picker, profile, elapsed, perThread), nil
}

// newResult builds a Result with one entry per pickable op and folds the
// per-thread records into it (§4: local measurement, merged at the end).
func newResult(o Options, picker *ops.Picker, profile ops.Profile, elapsed time.Duration, perThread []*threadStats) *Result {
	res := &Result{
		Options:  o,
		Elapsed:  elapsed,
		PerOp:    map[string]*OpResult{},
		Expected: profile.Ratios(),
	}
	for _, op := range picker.Ops() {
		r := &OpResult{Name: op.Name, Category: op.Category, ReadOnly: op.ReadOnly}
		for _, st := range perThread {
			r.Failed += st.ops[op.Index].failed
			r.TTC.Merge(&st.ops[op.Index].ttc)
		}
		r.Succeeded, r.MaxTTC = r.TTC.Count(), r.TTC.Max()
		res.PerOp[op.Name] = r
	}
	for _, st := range perThread {
		res.Response.Merge(&st.resp)
		res.ShedOps += st.sheds
	}
	return res
}

// --- aggregate views ------------------------------------------------------

// TotalSucceeded is the number of operations that completed successfully.
func (r *Result) TotalSucceeded() int64 {
	var n int64
	for _, op := range r.PerOp {
		n += op.Succeeded
	}
	return n
}

// TotalAttempted counts successes and failures.
func (r *Result) TotalAttempted() int64 {
	var n int64
	for _, op := range r.PerOp {
		n += op.Attempted()
	}
	return n
}

// Throughput returns successful operations per second — the paper's primary
// Figure 4 / Figure 6 / Table 3 metric.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalSucceeded()) / r.Elapsed.Seconds()
}

// AttemptedThroughput returns attempted (successful or failed) operations
// per second — the second summary throughput number of Appendix A.
func (r *Result) AttemptedThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.TotalAttempted()) / r.Elapsed.Seconds()
}

// ShedRate returns the fraction of issued open-loop arrivals that were
// shed by the overload policy (0 when shedding was off or the run was
// closed-loop). A high shed rate under a given offered load means the
// system was saturated: the work that did run met its lateness budget
// only because the rest was refused.
func (r *Result) ShedRate() float64 {
	if r.Arrivals <= 0 {
		return 0
	}
	return float64(r.ShedOps) / float64(r.Arrivals)
}

// CategoryResult aggregates a category: its operations' counts and their
// merged TTC histogram.
type CategoryResult struct {
	Category  ops.Category
	Succeeded int64
	Failed    int64
	MaxTTC    time.Duration
	TTC       Histogram
}

// ByCategory aggregates results per operation category.
func (r *Result) ByCategory() map[ops.Category]*CategoryResult {
	out := map[ops.Category]*CategoryResult{}
	for _, op := range r.PerOp {
		c := out[op.Category]
		if c == nil {
			c = &CategoryResult{Category: op.Category}
			out[op.Category] = c
		}
		c.Succeeded += op.Succeeded
		c.Failed += op.Failed
		c.MaxTTC = max(c.MaxTTC, op.MaxTTC)
		c.TTC.Merge(&op.TTC)
	}
	return out
}

// SampleError is the Appendix-A per-operation sample-error record: CT is
// the ratio derived from the benchmark parameters, RT the measured ratio of
// successful executions, ET = |CT - RT|; AT is the measured ratio of
// attempted executions and FT = |AT - RT|.
type SampleError struct {
	Name       string
	CT, RT, ET float64
	AT, FT     float64
}

// SampleErrors computes the per-operation sample errors and the totals
// E = sum(ET), F = sum(FT).
func (r *Result) SampleErrors() (perOp []SampleError, totalE, totalF float64) {
	succ := r.TotalSucceeded()
	att := r.TotalAttempted()
	for _, op := range sortedOps(r) {
		se := SampleError{Name: op.Name, CT: r.Expected[op.Name]}
		if succ > 0 {
			se.RT = float64(op.Succeeded) / float64(succ)
		}
		if att > 0 {
			se.AT = float64(op.Attempted()) / float64(att)
		}
		se.ET = abs(se.CT - se.RT)
		se.FT = abs(se.AT - se.RT)
		perOp = append(perOp, se)
		totalE += se.ET
		totalF += se.FT
	}
	return perOp, totalE, totalF
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
