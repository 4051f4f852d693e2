package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	stmbench7 "repro"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
)

// Pass tags for mixSeed: every pass draws its slice seeds from its own
// sequence, so adding slices to one pass never changes another's inputs.
const (
	passDriverCheck = 10 + iota
	passWarm
	passMeasure
	passProbe
	passLadder
)

const (
	minSlices      = 3
	probeT1s       = 10  // T1 executions per probe
	maxSampleError = 0.6 // Appendix-A E; logical failures alone put it at 0.3-0.5
)

// config is one invocation: a workload, a seed and a time budget.
type config struct {
	wl       *workload
	m        *mix
	seed     uint64
	seconds  float64
	params   core.Params // core.Small(); the test shrinks it
	scale    float64     // multiplies every fixed amount of work (tests shrink it)
	threads  int
	spansOut string
}

func (c *config) sliceOps() int { return max(len(c.m.ops), int(float64(c.wl.sliceOps)*c.scale)) }

func (c *config) spec(pass, i int) sliceSpec {
	return sliceSpec{
		wl: c.wl, m: c.m, params: c.params, strategy: c.wl.opts.Strategy,
		threads: c.threads, ops: c.sliceOps(), seed: mixSeed(c.seed, pass, i),
	}
}

// env records where a result was taken.
type env struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Workers    int     `json:"workers"`
	SliceOps   int     `json:"slice_ops_per_worker"`
	Seconds    float64 `json:"seconds"`
	LoadAvg    string  `json:"loadavg"`
}

// sliceRow is the per-slice record kept in the full report.
type sliceRow struct {
	Seed       uint64  `json:"seed"`
	ElapsedS   float64 `json:"elapsed_s"`
	Succeeded  int64   `json:"succeeded"`
	OpsPerS    float64 `json:"ops_per_s"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"`
	ShortP50Us float64 `json:"short_p50_us"`
	ShortP99Us float64 `json:"short_p99_us"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	SetupS     float64 `json:"setup_s"`
	HostFactor float64 `json:"host_factor"` // every time above is the clock's times this
}

// report is everything one invocation found. The last line of standard
// output is its result() projection; -out writes all of it.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     int               `json:"trace"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Gate      []string          `json:"gate_failures"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Slices    []sliceRow        `json:"slices,omitempty"`
	// HostFactors holds the factor of every slice the run made, in order:
	// how far from the reference host (host.go) the clock was.
	HostFactors []float64 `json:"host_factors"`
}

func (c *config) newReport(trace int) *report {
	load, _ := os.ReadFile("/proc/loadavg")
	return &report{
		Workload: c.wl.name, Seed: c.seed, Trace: trace, Correct: true,
		Metrics: map[string]metric{},
		Env: env{
			Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Workers: c.threads, SliceOps: c.sliceOps(), Seconds: c.seconds,
			LoadAvg: strings.TrimSpace(string(load)),
		},
	}
}

func (r *report) fail(format string, a ...any) {
	r.Correct = false
	r.Gate = append(r.Gate, fmt.Sprintf(format, a...))
}

// set records a declared metric; a value that is not a number is absent.
func (r *report) set(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.name == name {
			if math.IsNaN(v) {
				r.Metrics[name] = metric{Unit: d.unit, Absent: true}
			} else {
				r.Metrics[name] = metric{Value: v, Unit: d.unit}
			}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// count books a slice's outcomes and applies the per-slice part of the
// correctness gate: no engine give-ups or unexpected errors, the engine's
// own counters agree with what the workers saw, and the structure is intact.
func (r *report) count(what string, s *sliceResult) tally {
	t := s.tally()
	r.HostFactors = append(r.HostFactors, s.host)
	r.Attempted += t.attempted
	r.Failed += t.giveUp + t.unexpected
	if t.giveUp+t.unexpected > 0 {
		r.fail("%s: %d engine give-ups, %d unexpected errors", what, t.giveUp, t.unexpected)
	}
	if uint64(t.ok) != s.stats.Commits || uint64(t.logical) != s.stats.UserAborts {
		r.fail("%s: workers saw %d ok / %d logical failures, engine counted %d commits / %d user aborts",
			what, t.ok, t.logical, s.stats.Commits, s.stats.UserAborts)
	}
	if err := s.checkInvariants(); err != nil {
		r.fail("%s: %v", what, err)
	}
	return t
}

// driverCheck runs the workload once through the real driver
// (stmbench7.Setup + RunOn, iid picks, MaxOps) and applies the gate to what
// the driver itself reports: invariants, counter identity and the
// Appendix-A sample errors.
func (c *config) driverCheck(r *report) {
	opts := c.spec(passDriverCheck, 0).options()
	opts.MaxOps = max(1, c.sliceOps()/2)
	opts.CheckInvariants = true
	ex, s, err := stmbench7.Setup(opts)
	if err != nil {
		r.fail("driver check: %v", err)
		return
	}
	res, err := stmbench7.RunOn(opts, ex, s)
	if err != nil {
		r.fail("driver check: %v", err)
		return
	}
	ok, att := res.TotalSucceeded(), res.TotalAttempted()
	if uint64(ok) != res.EngineStats.Commits || uint64(att-ok) != res.EngineStats.UserAborts {
		r.fail("driver check: %d ok / %d failed, engine counted %d commits / %d user aborts",
			ok, att-ok, res.EngineStats.Commits, res.EngineStats.UserAborts)
	}
	// Both sample errors are sums of |expected share - measured share|
	// over the op types, so sampling alone contributes about
	// 0.8*sqrt(p(1-p)/n) per type; each is held to its allowance plus
	// three times that. The attempted shares differ from Table 2 by
	// nothing else; the successful shares (Appendix A's E) also by which
	// operations fail.
	perOp, e, _ := res.SampleErrors()
	var a, sampling float64
	for _, se := range perOp {
		a += math.Abs(se.CT - se.AT)
		sampling += 0.8 * math.Sqrt(se.CT*(1-se.CT)/float64(ok))
	}
	if e > maxSampleError+3*sampling {
		r.fail("driver check: sample error E=%.3f over %.2f+%.3f", e, maxSampleError, 3*sampling)
	}
	if a > 3*sampling {
		r.fail("driver check: attempted shares are %.4f from Table 2, sampling explains about %.4f", a, sampling)
	}
}

// slices runs fixed-work slices until share of the run's time budget is
// spent (at least minSlices, at most limit when limit > 0).
func (c *config) slices(share float64, limit int, one func(i int) error) error {
	budget := time.Duration(c.seconds * share * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for i := 0; i < minSlices || ((limit <= 0 || i < limit) && time.Since(start)+last <= budget); i++ {
		t0 := time.Now()
		if err := one(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// latencies returns the median and 99th percentile Execute time, in
// µs, over a slice's short traversals, short operations and structure
// modifications, and the slice's T1 Execute times in ms.
func latencies(m *mix, s *sliceResult) (p50, p99 float64, t1ms []float64) {
	var v []float64
	for _, w := range s.workers {
		for _, x := range w.samples {
			switch {
			case m.ops[x.op] == m.t1:
				t1ms = append(t1ms, float64(x.ns)/1e6)
			case m.ops[x.op].Category != ops.LongTraversal:
				v = append(v, float64(x.ns)/1e3)
			}
		}
	}
	sort.Float64s(v)
	return quantile(v, 0.5), quantile(v, 0.99), t1ms
}

// measure runs untraced slices until the time budget is spent and returns
// their rows and every T1 time seen: the mix's own T1 executions where it
// has them, else a probe after every slice, so that either way the samples
// are spread over the whole run.
func (c *config) measure(r *report) (rows []sliceRow, t1ms []float64, err error) {
	err = c.slices(1, 0, func(i int) error {
		s, err := runSlice(c.spec(passMeasure, i))
		if err != nil {
			return err
		}
		t := r.count(fmt.Sprintf("slice %d", i), s)
		p50, p99, t1 := latencies(c.m, s)
		if len(t1) == 0 {
			if t1, err = c.probeT1(r, i, s.host); err != nil {
				return err
			}
		}
		t1ms = append(t1ms, t1...)
		// Every slice starts from nothing, so every slice is also a
		// set-up: engine construction and core.Build, then the first half
		// of the slice's fixed work as the warm-up.
		var warm time.Duration
		for _, w := range s.workers {
			warm = max(warm, w.halfAt)
		}
		// The heap reading is of what the program keeps alive — the
		// engine and the structure — not of this benchmark's samples.
		s.workers = nil
		rows = append(rows, sliceRow{
			Seed: s.seed, ElapsedS: s.elapsed.Seconds(), Succeeded: t.ok,
			OpsPerS:    float64(t.ok) / s.elapsed.Seconds(),
			CPUUsPerOp: float64(s.cpu.Microseconds()) / float64(t.ok),
			ShortP50Us: p50, ShortP99Us: p99, LiveHeapMB: liveHeapMB(),
			SetupS: (s.setup + warm).Seconds(), HostFactor: s.host,
		})
		runtime.KeepAlive(s)
		return nil
	})
	return rows, t1ms, err
}

func column(rows []sliceRow, f func(sliceRow) float64) []float64 {
	v := make([]float64, len(rows))
	for i, row := range rows {
		v[i] = f(row)
	}
	return v
}

// probeT1 measures the full read-only traversal on a workload whose mix
// does not contain it: probeT1s executions through the workload's executor
// on a fresh structure, with the other workers idle. Beside a stream of
// short writers a snapshot traversal restarts for milliseconds while the
// structure is modified away under it, and no two runs agree; alone it is
// the read path's cost per traversal. It returns the Execute times in ms of
// reference-host time; host is the factor of the slice it follows.
func (c *config) probeT1(r *report, i int, host float64) ([]float64, error) {
	opts := c.spec(passProbe, i).options()
	ex, s, err := stmbench7.Setup(opts)
	if err != nil {
		return nil, err
	}
	rr := rng.New(mixSeed(opts.Seed, 2, 0))
	ms := make([]float64, 0, probeT1s)
	for n := 0; n < probeT1s; n++ {
		t0 := time.Now()
		_, err := ex.Execute(c.m.t1, s, rr)
		ms = append(ms, host*float64(time.Since(t0).Nanoseconds())/1e6)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.fail("T1 probe %d: %v", i, err)
		}
	}
	return ms, nil
}

// liveHeapMB is the heap still reachable after a forced collection, in MB.
// Two collections, so sync.Pool victim caches are emptied too.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd is the -trace 0 invocation: the correctness gate through the
// real driver, a warm-up slice and the measured slices, each with its set-up
// time, its live-heap reading and, where the mix has no T1, a T1 probe.
func (c *config) runEndToEnd() (*report, error) {
	r := c.newReport(0)
	c.driverCheck(r)

	// One slice that is not kept warms the process.
	warm, err := runSlice(c.spec(passWarm, 0))
	if err != nil {
		return nil, err
	}
	r.count("warm-up", warm)
	rows, t1, err := c.measure(r)
	if err != nil {
		return nil, err
	}
	r.Slices = rows

	// Throughput and CPU cost are sums over the slices, so heavy
	// operations count for what they cost. Latency quantiles and the live
	// heap are taken per slice and the median slice is reported: the host
	// slows in bursts of about a second, which a median over slices of a
	// third of a second ignores.
	var ok, elapsed, cpu float64
	for _, row := range rows {
		ok += float64(row.Succeeded)
		elapsed += row.ElapsedS
		cpu += row.CPUUsPerOp * float64(row.Succeeded)
	}
	r.set(endToEnd, "ops_per_s", ok/elapsed)
	r.set(endToEnd, "cpu_us_per_op", cpu/ok)
	r.set(endToEnd, "short_p50_us", median(column(rows, func(s sliceRow) float64 { return s.ShortP50Us })))
	r.set(endToEnd, "short_p99_us", median(column(rows, func(s sliceRow) float64 { return s.ShortP99Us })))
	r.set(endToEnd, "t1_p50_ms", median(t1))
	r.set(endToEnd, "live_heap_mb", median(column(rows, func(s sliceRow) float64 { return s.LiveHeapMB })))
	r.set(endToEnd, "setup_s", median(column(rows, func(s sliceRow) float64 { return s.SetupS })))
	for _, name := range r.absent() {
		r.fail("%s is not a number", name)
	}
	return r, nil
}
