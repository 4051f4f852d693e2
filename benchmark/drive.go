package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	stmbench7 "repro"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// Outcome of one executed operation.
const (
	outcomeOK       uint8 = iota
	outcomeLogical        // ops.ErrFailed: the paper's specified failure
	outcomeGiveUp         // stm.ErrAborted: the engine gave up
	outcomeUnexpect       // anything else
)

func classify(err error) uint8 {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, ops.ErrFailed):
		return outcomeLogical
	case errors.Is(err, stm.ErrAborted):
		return outcomeGiveUp
	default:
		return outcomeUnexpect
	}
}

// sample is one operation of an untraced slice: what ran, how it ended,
// what it returned and how long Executor.Execute took.
type sample struct {
	op      uint8
	outcome uint8
	res     int32
	ns      int64
}

// Span kinds. An op span covers one operation of one worker; its children
// are harness.pick and sync7.execute; an execute span's children are the
// ops.body spans, one per attempt. Children carry their parent's op id, so
// the parent link is (worker, op id, kind).
const (
	spanOp uint8 = iota
	spanPick
	spanExecute
	spanBody
)

var spanNames = [...]string{"op", "harness.pick", "sync7.execute", "ops.body"}

type span struct {
	id         uint32 // op id: position in the worker's stream
	kind       uint8
	op         uint8 // index into mix.ops
	outcome    uint8 // op and execute spans only
	start, end int64 // ns since the slice started
}

// countTx counts the accesses an operation body makes on its way to the
// engine's Tx.
type countTx struct {
	tx            stm.Tx
	reads, writes int64
}

func (c *countTx) Read(v *stm.Var) any                { c.reads++; return c.tx.Read(v) }
func (c *countTx) Write(v *stm.Var, val any)          { c.writes++; c.tx.Write(v, val) }
func (c *countTx) Update(v *stm.Var, f func(any) any) { c.writes++; c.tx.Update(v, f) }

// worker is one closed-loop client: it executes its stream back to back,
// waiting for each operation to return before starting the next.
type worker struct {
	stream  []uint8
	r       *rng.Rand
	samples []sample
	base    time.Time     // when the slice's drive started
	halfAt  time.Duration // untraced: when half the stream was done, since base

	// Traced slices only.
	wrapped []*ops.Op
	pickRng *rng.Rand
	spans   []span
	cur     uint32
	curOp   uint8
	ctx     countTx
	// accesses per op index, all attempts.
	reads, writes []int64
}

// wrap returns a copy of op whose Run records an ops.body span per attempt
// and hands the body a counting Tx. sync7 keys on op.Name, Category and
// ReadOnly, which the copy keeps.
func (w *worker) wrap(op *ops.Op) *ops.Op {
	c := *op
	c.Run = func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error) {
		w.ctx.tx = tx
		start := time.Since(w.base).Nanoseconds()
		// A conflicting attempt unwinds by panic; the deferred call still
		// closes its span.
		defer func() {
			w.spans = append(w.spans, span{id: w.cur, kind: spanBody, op: w.curOp, start: start, end: time.Since(w.base).Nanoseconds()})
		}()
		return op.Run(&w.ctx, s, r)
	}
	return &c
}

func (w *worker) run(m *mix, ex sync7.Executor, s *core.Structure) {
	for i, idx := range w.stream {
		if i == len(w.stream)/2 {
			w.halfAt = time.Since(w.base)
		}
		t0 := time.Now()
		res, err := ex.Execute(m.ops[idx], s, w.r)
		ns := time.Since(t0).Nanoseconds()
		w.samples[i] = sample{op: idx, outcome: classify(err), res: int32(res), ns: ns}
	}
}

func (w *worker) runTraced(m *mix, ex sync7.Executor, s *core.Structure) {
	for i, idx := range w.stream {
		w.cur, w.curOp = uint32(i), idx
		w.ctx.reads, w.ctx.writes = 0, 0
		p0 := time.Since(w.base).Nanoseconds()
		// The stream is drawn before the slice starts; Pick is called
		// here only to price it where the driver pays for it.
		m.picker.Pick(w.pickRng)
		e0 := time.Since(w.base).Nanoseconds()
		res, err := ex.Execute(w.wrapped[idx], s, w.r)
		e1 := time.Since(w.base).Nanoseconds()
		oc := classify(err)
		w.samples[i] = sample{op: idx, outcome: oc, res: int32(res), ns: e1 - e0}
		w.reads[idx] += w.ctx.reads
		w.writes[idx] += w.ctx.writes
		w.spans = append(w.spans,
			span{id: w.cur, kind: spanOp, op: idx, outcome: oc, start: p0, end: e1},
			span{id: w.cur, kind: spanPick, op: idx, start: p0, end: e0},
			span{id: w.cur, kind: spanExecute, op: idx, outcome: oc, start: e0, end: e1})
	}
}

// sliceSpec says what one slice runs.
type sliceSpec struct {
	wl       *workload
	m        *mix
	params   core.Params
	strategy string // wl.opts.Strategy, or "direct" for the zero-sync floor
	threads  int
	ops      int    // per worker
	seed     uint64 // structure, streams and worker rngs all derive from it
	traced   bool
	mem      *memDelta // when set, allocator activity over the drive is added to it
	host     float64   // when set, the host factor to use; else the kernel is timed
}

// sliceResult is what one slice measured. Every time in it, the workers'
// samples and spans included, is in reference-host time (host.go): what the
// clock said times host.
type sliceResult struct {
	seed      uint64
	host      float64       // hostFactor just before the slice
	setup     time.Duration // engine construction + core.Build
	elapsed   time.Duration // first worker start to last worker end
	cpu       time.Duration // process user+sys over the same interval
	workers   []*worker
	stats     stm.Stats // engine counters over the drive only
	ex        sync7.Executor
	structure *core.Structure
}

func (o sliceSpec) options() stmbench7.Options {
	opts := o.wl.opts
	opts.Params = o.params
	opts.Strategy = o.strategy
	opts.Threads = o.threads
	opts.Seed = o.seed
	return opts
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSlice times the host kernel, builds a fresh engine and structure from
// the slice seed and has every worker execute its stream once. Every slice
// starts from the same structure size, so a run's cost does not depend on
// how far structure modifications happened to drift in earlier slices.
func runSlice(o sliceSpec) (*sliceResult, error) {
	opts := o.options()
	host := o.host
	if host == 0 {
		// The kernel allocates, so it starts from a collected heap,
		// whatever ran before; and its own garbage is not set-up's to
		// collect.
		runtime.GC()
		host = hostFactor()
		runtime.GC()
	}
	t0 := time.Now()
	ex, s, err := stmbench7.Setup(opts)
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", o.wl.name, err)
	}
	res := &sliceResult{seed: o.seed, host: host, setup: time.Since(t0), ex: ex, structure: s}
	if opts.SkewTheta != 0 {
		s.SetIDSamplers(skewSamplers(o.params, opts.SkewTheta))
	}
	for t := 0; t < o.threads; t++ {
		w := &worker{
			stream:  o.m.stream(o.ops, rng.New(mixSeed(o.seed, 1, t))),
			r:       rng.New(mixSeed(o.seed, 2, t)),
			samples: make([]sample, o.ops),
		}
		if o.traced {
			w.pickRng = rng.New(mixSeed(o.seed, 3, t))
			w.spans = make([]span, 0, 4*o.ops+o.ops/4)
			w.reads = make([]int64, len(o.m.ops))
			w.writes = make([]int64, len(o.m.ops))
			for _, op := range o.m.ops {
				w.wrapped = append(w.wrapped, w.wrap(op))
			}
		}
		res.workers = append(res.workers, w)
	}

	// Start from a collected heap so set-up's garbage is not billed to
	// the drive.
	runtime.GC()
	before := ex.Engine().Stats()
	var mem0 memDelta
	if o.mem != nil {
		mem0 = readMem()
	}
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range res.workers {
		w.base = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o.traced {
				w.runTraced(o.m, ex, s)
			} else {
				w.run(o.m, ex, s)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if o.mem != nil {
		o.mem.addSince(mem0)
	}
	res.stats = ex.Engine().Stats().Delta(before)
	res.toReference()
	return res, nil
}

// toReference turns the slice's clock times into reference-host times.
func (r *sliceResult) toReference() {
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * r.host) }
	r.setup, r.elapsed, r.cpu = scale(r.setup), scale(r.elapsed), scale(r.cpu)
	for _, w := range r.workers {
		w.halfAt = scale(w.halfAt)
		for i := range w.samples {
			w.samples[i].ns = int64(float64(w.samples[i].ns) * r.host)
		}
		for i := range w.spans {
			w.spans[i].start = int64(float64(w.spans[i].start) * r.host)
			w.spans[i].end = int64(float64(w.spans[i].end) * r.host)
		}
	}
}

// tally counts a slice's outcomes.
type tally struct {
	attempted, ok, logical, giveUp, unexpected int64
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.logical += u.logical
	t.giveUp += u.giveUp
	t.unexpected += u.unexpected
}

func (r *sliceResult) tally() tally {
	var t tally
	for _, w := range r.workers {
		for _, s := range w.samples {
			t.attempted++
			switch s.outcome {
			case outcomeOK:
				t.ok++
			case outcomeLogical:
				t.logical++
			case outcomeGiveUp:
				t.giveUp++
			default:
				t.unexpected++
			}
		}
	}
	return t
}

// checkInvariants runs the structural checker on the slice's structure.
func (r *sliceResult) checkInvariants() error {
	return r.ex.Engine().Atomic(func(tx stm.Tx) error { return r.structure.CheckInvariants(tx) })
}
