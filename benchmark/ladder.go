package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	stmbench7 "repro"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// nullExec is rung (a) of the ladder: an executor that returns at once, so
// a run through the real driver prices the driver alone — pick, rng, clock
// reads and bookkeeping.
type nullExec struct{ eng stm.Engine }

func (nullExec) Name() string         { return "null" }
func (n nullExec) Engine() stm.Engine { return n.eng }
func (nullExec) Execute(*ops.Op, *core.Structure, *rng.Rand) (int, error) {
	return 0, nil
}

// harnessFloor returns the driver's own cost per operation in ns of
// reference-host time.
func (c *config) harnessFloor() (float64, error) {
	opts := c.spec(passLadder, 0).options()
	opts.Strategy, opts.Threads = "direct", 1
	opts.MaxOps = max(1000, int(200000*c.scale))
	_, s, err := stmbench7.Setup(opts)
	if err != nil {
		return 0, err
	}
	host := hostFactor()
	res, err := stmbench7.RunOn(opts, nullExec{stm.NewDirect()}, s)
	if err != nil {
		return 0, err
	}
	return host * float64(res.Elapsed.Nanoseconds()) / float64(opts.MaxOps), nil
}

// catSums holds one number per operation category.
type catSums [len(categories)]float64

// rung is what the spans of one or more traced slices add up to.
type rung struct {
	ops, attempts          float64
	pickNs, execNs, bodyNs float64
	wastedNs               float64 // body time of attempts that were retried
	catOps, catExecNs      catSums
	catBodyNs              catSums
	catReads, catWrites    catSums
	// Per op type, for comparing two rungs that ran the same stream.
	okN, logicalN []int64
	checksum      []int64
}

func (c *config) newRung() *rung {
	n := len(c.m.ops)
	return &rung{okN: make([]int64, n), logicalN: make([]int64, n), checksum: make([]int64, n)}
}

func (g *rung) selfNs() float64 { return g.execNs - g.bodyNs }

// add folds one traced slice into the rung. A worker's spans arrive in
// completion order: the body spans of an operation, then its op, pick and
// execute spans. An execute span's self time is its duration minus its body
// spans; every body span but the last belongs to an attempt that was
// thrown away.
func (g *rung) add(m *mix, s *sliceResult) {
	for _, w := range s.workers {
		var bodies, lastBody float64
		for _, sp := range w.spans {
			d := float64(sp.end - sp.start)
			cat := m.ops[sp.op].Category
			switch sp.kind {
			case spanBody:
				g.attempts++
				bodies += d
				lastBody = d
			case spanPick:
				g.pickNs += d
			case spanExecute:
				g.ops++
				g.execNs += d
				g.bodyNs += bodies
				g.wastedNs += bodies - lastBody
				g.catOps[cat]++
				g.catExecNs[cat] += d
				g.catBodyNs[cat] += bodies
				bodies, lastBody = 0, 0
			}
		}
		for i, op := range m.ops {
			g.catReads[op.Category] += float64(w.reads[i])
			g.catWrites[op.Category] += float64(w.writes[i])
		}
		for _, x := range w.samples {
			switch x.outcome {
			case outcomeOK:
				g.okN[x.op]++
				g.checksum[x.op] += int64(x.res)
			case outcomeLogical:
				g.logicalN[x.op]++
			}
		}
	}
}

// sameResults reports the first operation type on which two rungs that ran
// the same seeded stream disagree.
func (g *rung) sameResults(h *rung, m *mix) error {
	for i, op := range m.ops {
		if g.okN[i] != h.okN[i] || g.logicalN[i] != h.logicalN[i] || g.checksum[i] != h.checksum[i] {
			return fmt.Errorf("%s: %d ok / %d failed / checksum %d on direct, %d / %d / %d on the engine",
				op.Name, g.okN[i], g.logicalN[i], g.checksum[i], h.okN[i], h.logicalN[i], h.checksum[i])
		}
	}
	return nil
}

// memDelta is the allocator and collector activity over some drives.
type memDelta struct {
	bytes, mallocs, cycles, pauseNs float64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{
		bytes: float64(ms.TotalAlloc), mallocs: float64(ms.Mallocs),
		cycles: float64(ms.NumGC) - float64(ms.NumForcedGC), pauseNs: float64(ms.PauseTotalNs),
	}
}

func (d *memDelta) addSince(before memDelta) {
	now := readMem()
	d.bytes += now.bytes - before.bytes
	d.mallocs += now.mallocs - before.mallocs
	d.cycles += now.cycles - before.cycles
	d.pauseNs += now.pauseNs - before.pauseNs
}

// ratio is a/b, or absent when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return absent
	}
	return a / b
}

func onlyIf(cond bool, v float64) float64 {
	if !cond {
		return absent
	}
	return v
}

// runTraced is the -trace 1 invocation: an untraced reference pass, then
// the cost ladder — (a) the driver over a null executor, (b) the workload's
// stream on one worker over direct, (c) the same stream on one worker over
// the workload's strategy, (d) the workload's own configuration — with
// every operation wrapped so its body is a span and its accesses are
// counted.
func (c *config) runTraced() (*report, error) {
	r := c.newReport(1)

	// Warm the process the way the end-to-end run does before measuring.
	warm, err := runSlice(c.spec(passWarm, 0))
	if err != nil {
		return nil, err
	}
	r.count("warm-up", warm)

	// Reference: the end-to-end pass again, shorter, for the engine
	// counters, the collector's work and the untraced throughput that
	// rung (d) is compared with.
	var refStats stm.Stats
	var refMem memDelta
	var refTally tally
	var refElapsed time.Duration
	var refThr []float64
	err = c.slices(0.3, 0, func(i int) error {
		spec := c.spec(passMeasure, i)
		spec.mem = &refMem
		s, err := runSlice(spec)
		if err != nil {
			return err
		}
		t := r.count(fmt.Sprintf("reference slice %d", i), s)
		refTally.add(t)
		refStats = addStats(refStats, s.stats)
		refElapsed += s.elapsed
		refThr = append(refThr, float64(t.ok)/s.elapsed.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}

	floor, err := c.harnessFloor()
	if err != nil {
		return nil, err
	}

	// Rungs (b) and (c): one worker, so nothing aborts and both execute
	// the identical operation sequence on identical structures.
	direct, alone := c.newRung(), c.newRung()
	var builds []float64
	err = c.slices(0.35, 0, func(i int) error {
		spec := c.spec(passLadder, i+1)
		spec.threads, spec.traced = 1, true
		// Which of the two runs first alternates, so neither always
		// inherits the other's heap and caches. Both are scaled by one
		// timing of the host kernel: their difference is what is wanted,
		// and two timings would put their own difference into it.
		for j := 0; j < 2; j++ {
			into := direct
			spec.strategy = "direct"
			if j != i%2 {
				into, spec.strategy = alone, c.wl.opts.Strategy
			}
			s, err := runSlice(spec)
			if err != nil {
				return err
			}
			r.count(fmt.Sprintf("1-worker %s slice %d", spec.strategy, i), s)
			spec.host = s.host
			if into == direct {
				builds = append(builds, s.setup.Seconds())
			}
			into.add(c.m, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := direct.sameResults(alone, c.m); err != nil {
		r.fail("direct and %s disagree on the same stream: %v", c.wl.opts.Strategy, err)
	}

	// Rung (d): the reference pass's slices again, traced.
	full := c.newRung()
	var fullThr []float64
	var lastFull *sliceResult
	err = c.slices(0.3, len(refThr), func(i int) error {
		spec := c.spec(passMeasure, i)
		spec.traced = true
		s, err := runSlice(spec)
		if err != nil {
			return err
		}
		t := r.count(fmt.Sprintf("traced slice %d", i), s)
		full.add(c.m, s)
		fullThr = append(fullThr, float64(t.ok)/s.elapsed.Seconds())
		lastFull = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.spansOut != "" {
		if err := writeSpans(c.spansOut, c.m, lastFull); err != nil {
			return nil, err
		}
	}

	kind := strategyKind(c.wl.opts.Strategy)
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	lockOnly := func(v float64) float64 { return onlyIf(kind == sync7.KindLock, v) }
	stmOnly := func(v float64) float64 { return onlyIf(kind == sync7.KindSTM, v) }

	set("harness.floor_ns_per_op", floor)
	set("harness.pick_ns_per_op", ratio(full.pickNs, full.ops))
	set("harness.slice_spread", spread(refThr))
	set("sync7.lock_ns_per_op", lockOnly(ratio(full.selfNs(), full.ops)))
	set("sync7.lock_share", lockOnly(ratio(full.selfNs(), full.execNs)))
	set("ops.body_share", ratio(full.bodyNs, full.execNs))
	set("ops.logical_fail_share", ratio(float64(refTally.logical), float64(refTally.attempted)))
	set("core.build_s", median(builds))
	for i, cat := range categories {
		set("ops.body_ns_per_op.direct."+cat, ratio(direct.catBodyNs[i], direct.catOps[i]))
		set("ops.time_share."+cat, onlyIf(full.catOps[i] > 0, ratio(full.catExecNs[i], full.execNs)))
		set("core.reads_per_op."+cat, ratio(direct.catReads[i], direct.catOps[i]))
		set("core.writes_per_op."+cat, ratio(direct.catWrites[i], direct.catOps[i]))
	}

	accesses := sum(alone.catReads[:]) + sum(alone.catWrites[:])
	set("stm.txn_overhead_ns_per_op", stmOnly(ratio(alone.selfNs(), alone.ops)))
	set("stm.access_overhead_ns", stmOnly(ratio(alone.execNs-direct.execNs, accesses)))
	set("stm.contention_ns_per_op", stmOnly(ratio(full.selfNs(), full.ops)-ratio(alone.selfNs(), alone.ops)))
	set("stm.attempts_per_op", stmOnly(ratio(full.attempts, full.ops)))
	set("stm.wasted_body_share", stmOnly(ratio(full.wastedNs, full.bodyNs)))

	st := refStats
	started := float64(st.Commits + st.UserAborts + st.ConflictAborts)
	set("stm.conflict_abort_share", stmOnly(ratio(float64(st.ConflictAborts), started)))
	set("stm.validations_per_read", stmOnly(ratio(float64(st.Validations), float64(st.Reads))))
	set("stm.reads_per_commit", ratio(float64(st.Reads), float64(st.Commits)))
	set("stm.writes_per_commit", ratio(float64(st.Writes), float64(st.Commits)))
	set("stm.clones_per_commit", stmOnly(ratio(float64(st.Clones), float64(st.Commits))))
	set("stm.snapshot_share", stmOnly(ratio(float64(st.SnapshotTxs), float64(st.Commits))))
	set("stm.snapshot_restarts_per_ktx", stmOnly(ratio(1000*float64(st.SnapshotRestarts), float64(st.SnapshotTxs))))
	set("stm.lock_failures_per_kcommit", stmOnly(ratio(1000*float64(st.LockFailures), float64(st.Commits))))

	set("gc.alloc_bytes_per_op", ratio(refMem.bytes, float64(refTally.ok)))
	set("gc.allocs_per_op", ratio(refMem.mallocs, float64(refTally.ok)))
	set("gc.cycles_per_s", ratio(refMem.cycles, refElapsed.Seconds()))
	set("gc.pause_ms_per_s", ratio(refMem.pauseNs/1e6, refElapsed.Seconds()))
	set("trace.overhead_share", 1-ratio(median(fullThr), median(refThr)))
	return r, nil
}

// strategyKind classifies a strategy the way sync7's registry does.
func strategyKind(name string) sync7.Kind {
	for _, k := range []sync7.Kind{sync7.KindLock, sync7.KindSTM} {
		for _, n := range sync7.StrategiesOfKind(k) {
			if n == name {
				return k
			}
		}
	}
	return sync7.KindDirect
}

// addStats adds the counters the per-layer metrics read.
func addStats(a, b stm.Stats) stm.Stats {
	a.Commits += b.Commits
	a.UserAborts += b.UserAborts
	a.ConflictAborts += b.ConflictAborts
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.Validations += b.Validations
	a.Clones += b.Clones
	a.LockFailures += b.LockFailures
	a.SnapshotTxs += b.SnapshotTxs
	a.SnapshotRestarts += b.SnapshotRestarts
	return a
}

var outcomeNames = [...]string{"ok", "logical-failure", "give-up", "error"}

// writeSpans writes one traced slice's spans as JSON lines.
func writeSpans(path string, m *mix, s *sliceResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Worker  int    `json:"worker"`
		Op      uint32 `json:"op"`
		Name    string `json:"name"`
		Parent  string `json:"parent,omitempty"`
		Type    string `json:"type"`
		Outcome string `json:"outcome,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	parents := [...]string{spanOp: "", spanPick: "op", spanExecute: "op", spanBody: "sync7.execute"}
	for wi, w := range s.workers {
		for _, sp := range w.spans {
			l := line{Worker: wi, Op: sp.id, Name: spanNames[sp.kind], Parent: parents[sp.kind],
				Type: m.ops[sp.op].Name, StartNs: sp.start, EndNs: sp.end}
			if sp.kind == spanOp || sp.kind == spanExecute {
				l.Outcome = outcomeNames[sp.outcome]
			}
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
