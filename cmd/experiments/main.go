// Command experiments regenerates the STMBench7 paper's evaluation on the
// local machine — the paper's experiments and nothing else:
//
//	fig3      — Figure 3: max latency of long traversals, coarse vs medium
//	fig4      — Figure 4: throughput by workload, coarse vs medium, no long traversals
//	table3    — Table 3: throughput, coarse locking vs the ASTM-style STM (ostm)
//	fig6      — Figure 6: throughput on the reduced op set, coarse/medium plus
//	            every registered STM engine (ostm, tl2, norec, ...)
//	headline  — §5: one T1 under ASTM against one under locks
//	ablations — the engines' design choices and §5's grouped parts, one row each
//
// Numbers are ops/s and milliseconds on this host; the paper's shape (who
// wins, rough factors, crossovers), not its absolute values, is the
// reproduction target. Run with -exp all (default) or one id.
//
// The sweep axis is the engine configuration, not the program: fig4, table3
// and fig6 run every engine under -g, an engine-spec option list in
// stm.ParseEngineSpec syntax (-exp fig6 -g cm=timid is Figure 6 with OSTM
// under the Timid contention manager, -g serial with the irrevocable serial
// fallback, -g nosnap with read-only operations on the validating path).
// fig3, headline and ablations pin their configurations and ignore -g: fig3
// compares the two lock strategies, a headline row names its engine and
// dispatch, and an ablation row is an engine spec (ostm:commitcounter,
// ostm:visible, ostm:cm=timid, tl2), the last also on §5's grouped-parts
// layout. What a mechanism did in one run (snapshot restarts, serial
// escalations, shed rate) is in the report of cmd/stmbench7 -g <spec>;
// whether it pays is for benchmark/ to say.
//
// With -json FILE ("-" for stdout) every measured point is also written as
// JSON under a header echoing the flags and the host. Example:
//
//	experiments -exp fig4 -size small -seconds 2 -threads 1,2,4,8
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	stmbench7 "repro"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// experiments is the experiment table: -exp resolves against it, "all"
// runs it in order, and the help text and the unknown-experiment error
// list it. Figure 4, Table 3 and Figure 6 are the same measurement — every
// workload × strategy × thread count — and differ only in the row's fields.
var experiments = []experiment{
	{"fig3", figure3},
	{"fig4", grid{
		title: "Figure 4: total throughput [ops/s], long traversals disabled",
		note: "(paper: medium ~= coarse at 1 thread, pulls ahead with >= 2 threads,\n" +
			"     advantage shrinks as the update share grows)",
		columns: []column{{"medium", "med"}, {"coarse", "coarse"}},
		width:   10,
	}.run},
	{"table3", grid{
		title:   "Table 3: total throughput [ops/s], coarse locking vs OSTM (ASTM variant), long traversals disabled",
		columns: []column{{"coarse", "lock"}, {"ostm", "ostm"}},
		width:   12, prec: 1, // OSTM can sit orders of magnitude below the lock
	}.run},
	{"fig6", grid{
		title: "Figure 6: total throughput [ops/s], reduced operation set (all long operations disabled)",
		note: "(paper: on this op set ASTM scales like medium locking for read-dominated\n" +
			"     workloads and beats coarse locking given enough threads)",
		columns:     []column{{"medium", "medium"}, {"coarse", "coarse"}},
		everySTM:    true,
		reduced:     true,
		perWorkload: true,
		width:       10,
	}.run},
	{"headline", headline},
	{"ablations", ablations},
}

type experiment struct {
	name string
	run  func(*driver) error
}

// driver is one invocation: the flags, where the tables go, and the points
// measured so far.
type driver struct {
	params   core.Params
	duration time.Duration // per data point
	threads  []int
	seed     uint64
	// engine (-g) configures every engine of fig4, table3 and fig6.
	engine stm.EngineOptions

	out    io.Writer
	exp    string // experiment id being run, stamped on recorded points
	points []jsonPoint
}

// jsonPoint is one measured data point in -json output. Fields that do not
// apply to a point's kind are omitted; AbortPct is a pointer so that a
// genuine 0 survives omitempty.
type jsonPoint struct {
	Experiment   string   `json:"experiment"`
	Variant      string   `json:"variant"`
	Workload     string   `json:"workload,omitempty"`
	Threads      int      `json:"threads,omitempty"`
	OpsPerSec    float64  `json:"ops_per_sec,omitempty"`
	MaxLatencyMs float64  `json:"max_latency_ms,omitempty"`
	NsPerOp      float64  `json:"ns_per_op,omitempty"`
	AbortPct     *float64 `json:"abort_pct,omitempty"`
	Validations  uint64   `json:"validations,omitempty"`
	Commits      uint64   `json:"commits,omitempty"`
	Aborts       uint64   `json:"aborts,omitempty"`
}

// jsonReport is the -json document: the flags, the host and runtime the
// points were measured under, and the points.
type jsonReport struct {
	Size       string      `json:"size"`
	Seconds    float64     `json:"seconds"`
	Threads    []int       `json:"threads"`
	Seed       uint64      `json:"seed"`
	Engine     string      `json:"engine,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Engines    []string    `json:"engines"`
	Strategies []string    `json:"strategies"`
	Points     []jsonPoint `json:"points"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole program. Configuration errors come before any work:
// every flag is checked and -exp resolved before the banner is printed and
// the first structure built.
func run(args []string, stdout io.Writer) error {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+" or all")
	size := fs.String("size", "small", "structure size: tiny, small or medium (paper scale)")
	seconds := fs.Float64("seconds", 1.0, "measurement duration per data point, in seconds")
	threadsFlag := fs.String("threads", "1,2,4,8", "comma-separated thread counts")
	seed := fs.Uint64("seed", 42, "benchmark seed")
	engineFlag := fs.String("g", "", "engine options for fig4, table3 and fig6, as an engine-spec option list (e.g. cm=timid,deadline=25ms)")
	jsonPath := fs.String("json", "", "also write machine-readable results to this file (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for it is not a failure
		}
		return err
	}

	d := &driver{seed: *seed, out: stdout}
	var err error
	if d.engine, err = (stm.EngineOptions{}).Apply(*engineFlag); err != nil {
		return fmt.Errorf("bad -g: %w", err)
	}
	var ok bool
	if d.params, ok = core.Named(*size); !ok {
		return fmt.Errorf("unknown size %q (want tiny, small or medium)", *size)
	}
	for _, part := range strings.Split(*threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -threads %q: %q is not a thread count (want a comma-separated list of integers >= 1, e.g. 1,2,4,8)", *threadsFlag, part)
		}
		d.threads = append(d.threads, n)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("bad -seconds %v (want a duration > 0, e.g. 0.5)", *seconds)
	}
	d.duration = time.Duration(*seconds * float64(time.Second))
	selected := experiments
	if i := slices.Index(names, *exp); i >= 0 {
		selected = experiments[i : i+1]
	} else if *exp != "all" {
		return fmt.Errorf("unknown experiment %q (want %s or all)", *exp, strings.Join(names, ", "))
	}

	d.printf("STMBench7 experiment driver — structure %q (%d composite x %d atomic parts), %gs per point\n\n",
		*size, d.params.NumCompParts, d.params.NumAtomicPerComp, *seconds)
	for _, e := range selected {
		d.exp = e.name
		if err := e.run(d); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	if *jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(jsonReport{
		Size: *size, Seconds: *seconds, Threads: d.threads, Seed: d.seed,
		Engine:    d.engine.String(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Engines: stm.Registered(), Strategies: sync7.Strategies(),
		Points: d.points,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal -json: %w", err)
	}
	data = append(data, '\n')
	if *jsonPath == "-" {
		_, err = d.out.Write(data)
		return err
	}
	if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
		return fmt.Errorf("write -json: %w", err)
	}
	fmt.Fprintf(d.out, "wrote %d data points to %s\n", len(d.points), *jsonPath)
	return nil
}

// record keeps a data point for -json under the running experiment's id.
func (d *driver) record(p jsonPoint) {
	p.Experiment = d.exp
	d.points = append(d.points, p)
}

func (d *driver) printf(format string, args ...any) { fmt.Fprintf(d.out, format, args...) }

func engineStatsPoint(p jsonPoint, es stm.Stats) jsonPoint {
	abortPct := 100 * es.AbortRate()
	p.AbortPct = &abortPct
	p.Validations, p.Commits, p.Aborts = es.Validations, es.Commits, es.ConflictAborts
	return p
}

// column is one strategy of a throughput table and its header label.
type column struct{ strategy, label string }

// grid is a throughput table of the paper: every workload × strategy ×
// thread count through the real driver, long traversals disabled, under
// the run's -g options.
type grid struct {
	title   string
	note    string // the paper's finding, printed under the title
	columns []column
	// everySTM appends a column per registered STM engine, so a new engine
	// joins the comparison automatically.
	everySTM bool
	reduced  bool // the §5 reduced operation set
	// perWorkload prints one sub-table per workload instead of one wide
	// table with a column group per workload.
	perWorkload bool
	width, prec int // of a throughput cell
}

func (g grid) run(d *driver) error {
	columns := slices.Clone(g.columns)
	if g.everySTM {
		for _, name := range sync7.STMStrategies() {
			columns = append(columns, column{name, name})
		}
	}
	d.printf("=== %s ===\n", g.title)
	if g.note != "" {
		d.printf("    %s\n", g.note)
	}
	workloads := []ops.Workload{ops.ReadDominated, ops.ReadWrite, ops.WriteDominated}
	short := map[ops.Workload]string{ops.ReadDominated: "R", ops.ReadWrite: "RW", ops.WriteDominated: "W"}
	blocks := [][]ops.Workload{workloads}
	if g.perWorkload {
		blocks = [][]ops.Workload{workloads[:1], workloads[1:2], workloads[2:]}
	}
	for _, block := range blocks {
		if g.perWorkload {
			d.printf("  workload %v\n", block[0])
		}
		d.printf("%8s", "threads")
		for _, w := range block {
			d.printf(" |")
			for _, c := range columns {
				label := c.label
				if !g.perWorkload {
					label = short[w] + " " + label
				}
				d.printf(" %*s", g.width, label)
			}
		}
		d.printf("\n")
		for _, th := range d.threads {
			d.printf("%8d", th)
			for _, w := range block {
				d.printf(" |")
				for _, c := range columns {
					res, err := stmbench7.Run(stmbench7.Options{
						Params: d.params, Seed: d.seed, Duration: d.duration, Threads: th,
						Workload: w, StructureMods: true, Reduced: g.reduced,
						Strategy: c.strategy, Engine: d.engine,
					})
					if err != nil {
						d.printf("\n")
						return err
					}
					d.printf(" %*.*f", g.width, g.prec, res.Throughput())
					d.record(engineStatsPoint(jsonPoint{
						Variant: c.strategy, Workload: w.String(), Threads: th, OpsPerSec: res.Throughput(),
					}, res.EngineStats))
				}
			}
			d.printf("\n")
		}
	}
	d.printf("\n")
	return nil
}

// drive runs n workers, each looping step for the per-point duration (and
// at least once). A step that fails with anything but an operation's two
// specified outcomes (ops.ErrFailed, stm.ErrAborted) stops them all at once
// and is the error returned.
func (d *driver) drive(n int, seed func(worker int) uint64, step func(worker int, r *rng.Rand) error) error {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var once sync.Once // guards firstErr and the close of failed
	var firstErr error
	failed := make(chan struct{})
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rng.New(seed(t))
			for done := false; !done; done = stop.Load() { // at least one step
				err := step(t, r)
				if err != nil && !errors.Is(err, ops.ErrFailed) && !errors.Is(err, stm.ErrAborted) {
					once.Do(func() { firstErr = err; close(failed) })
					return
				}
			}
		}(t)
	}
	timer := time.NewTimer(d.duration)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-failed:
	}
	stop.Store(true)
	wg.Wait()
	return firstErr
}

// figure3: maximum latency of T1 (read-dominated) and T2b (write-dominated)
// with all operations enabled, coarse vs medium.
//
// Methodology: at realistic structure sizes a specific long traversal is
// drawn too rarely for its max latency to be sampled from the mixed run, so
// one dedicated thread repeatedly executes the measured traversal while the
// remaining threads run the full operation mix — the same latency-under-load
// quantity Figure 3 plots.
func figure3(d *driver) error {
	d.printf("=== Figure 3: maximum latency of long traversals, all operations enabled ===\n")
	d.printf("    (paper: medium-grained latency above coarse-grained — long traversals\n")
	d.printf("     queue on 9+ locks instead of 1)\n")
	d.printf("%8s | %14s %14s | %14s %14s\n", "threads",
		"R/T1 medium", "R/T1 coarse", "W/T2b medium", "W/T2b coarse")
	for _, th := range d.threads {
		d.printf("%8d", th)
		for _, pt := range []struct {
			w  ops.Workload
			op string
		}{{ops.ReadDominated, "T1"}, {ops.WriteDominated, "T2b"}} {
			d.printf(" |")
			for _, strat := range []string{"medium", "coarse"} {
				ms, err := d.maxTraversalLatency(strat, pt.w, pt.op, th)
				if err != nil {
					d.printf("\n")
					return err
				}
				d.printf(" %11.2fms", ms)
			}
		}
		d.printf("\n")
	}
	d.printf("\n")
	return nil
}

// maxTraversalLatency runs one thread looping the named traversal beside
// `threads-1` threads of the full mix for the configured duration; it
// returns the traversal's maximum observed latency in milliseconds.
func (d *driver) maxTraversalLatency(strategy string, w ops.Workload, opName string, threads int) (float64, error) {
	ex, err := sync7.New(sync7.Config{Strategy: strategy, NumAssmLevels: d.params.NumAssmLevels})
	if err != nil {
		return 0, err
	}
	s, err := core.Build(d.params, d.seed, ex.Engine().VarSpace())
	if err != nil {
		return 0, err
	}
	traversal, _ := ops.ByName(opName)
	picker := ops.NewPicker(ops.Profile{Workload: w, LongTraversals: true, StructureMods: true})
	var maxTTC time.Duration // worker 0's alone
	err = d.drive(threads, func(t int) uint64 { return d.seed + uint64(t) }, func(t int, r *rng.Rand) error {
		if t > 0 {
			_, err := ex.Execute(picker.Pick(r), s, r)
			return err
		}
		t0 := time.Now()
		if _, err := ex.Execute(traversal, s, r); err != nil {
			return fmt.Errorf("%s: %v", opName, err) // %v: for the measured traversal every outcome but success is an error
		}
		maxTTC = max(maxTTC, time.Since(t0))
		return nil
	})
	if err != nil {
		return 0, err
	}
	ms := float64(maxTTC.Microseconds()) / 1000.0
	d.record(jsonPoint{Variant: strategy + "/" + opName, Workload: w.String(), Threads: threads, MaxLatencyMs: ms})
	return ms, nil
}

// headline reproduces §5's single-number claim: one execution of T1 under
// the ASTM-style STM versus under locking (the paper saw ~30 min vs ~1.5 s
// at full scale; the ratio is the reproduction target).
//
// T1 is read-only, so the snapshot dispatch — on by default everywhere
// else — would bypass exactly the validation pathology this experiment
// exists to reproduce; the faithful rows therefore pin the validating path
// (nosnap), and the final rows show the same traversal under the snapshot
// fast path (the in-repo fix for the pathology).
func headline(d *driver) error {
	d.printf("=== §5 headline: single execution of long traversal T1, 1 thread ===\n")
	t1, _ := ops.ByName("T1")
	var baseline time.Duration
	for _, pt := range []struct{ name, spec string }{
		{"coarse lock", "coarse"},
		{"medium lock", "medium"},
		{"tl2", "tl2:nosnap"},
		{"norec", "norec:nosnap"},
		{"ostm (ASTM variant)", "ostm:nosnap"},
		{"tl2, ro-snapshot", "tl2"},
		{"ostm, ro-snapshot", "ostm"},
	} {
		spec, err := stm.ParseEngineSpec(pt.spec)
		if err != nil {
			return err
		}
		ex, err := sync7.New(sync7.Config{
			Strategy: spec.Name, NumAssmLevels: d.params.NumAssmLevels,
			Engine: spec.Options,
		})
		if err != nil {
			return err
		}
		s, err := core.Build(d.params, d.seed, ex.Engine().VarSpace())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := ex.Execute(t1, s, rng.New(d.seed)); err != nil {
			return fmt.Errorf("T1 under %s: %w", pt.name, err)
		}
		el := time.Since(t0)
		if baseline == 0 {
			baseline = el
		}
		stats := ex.Engine().Stats()
		d.printf("  %-32s %12v   (%6.1fx coarse)   reads %10d  validations %12d\n",
			pt.name, el.Round(time.Microsecond), float64(el)/float64(baseline), stats.Reads, stats.Validations)
		d.record(jsonPoint{Variant: pt.name, Threads: 1, NsPerOp: float64(el.Nanoseconds()), Validations: stats.Validations})
	}
	d.printf("    (paper at full scale: ~half an hour under ASTM vs ~1.5 s under locking;\n")
	d.printf("     the O(k^2) validation count above is the mechanism)\n\n")
	return nil
}

// ablations prints the design-choice comparison tables: OSTM knobs
// (validation strategy, read visibility, contention manager) and §5's
// grouped-parts layout. All run the reduced read-write mix at the
// configured size on the largest configured thread count, straight on the
// engine (no executor, so no snapshot dispatch).
func ablations(d *driver) error {
	threads := d.threads[len(d.threads)-1]
	profile := ops.Profile{Workload: ops.ReadWrite, StructureMods: true, Reduced: true}
	d.printf("=== Ablations: reduced read-write mix, %d threads, %gs per row ===\n", threads, d.duration.Seconds())
	d.printf("%-20s %-26s %12s %10s %14s\n", "group", "variant", "ops/s", "abort-%", "validations")
	lastGroup := ""
	for _, row := range []struct {
		group, name string
		spec        string // the row's engine as an engine spec
		grouped     bool   // §5's grouped atomic-part layout
	}{
		{group: "ostm validation", name: "incremental (faithful)", spec: "ostm"},
		{group: "ostm validation", name: "commit-counter heuristic", spec: "ostm:commitcounter"},
		{group: "ostm reads", name: "invisible (faithful)", spec: "ostm"},
		{group: "ostm reads", name: "visible", spec: "ostm:visible"},
		{group: "contention manager", name: "polka (paper)", spec: "ostm"},
		{group: "contention manager", name: "timid", spec: "ostm:cm=timid"},
		{group: "layout (tl2)", name: "faithful", spec: "tl2"},
		{group: "layout (tl2)", name: "grouped parts", spec: "tl2", grouped: true},
	} {
		if row.group != lastGroup && lastGroup != "" {
			d.printf("\n")
		}
		lastGroup = row.group
		spec, err := stm.ParseEngineSpec(row.spec)
		if err != nil {
			return err
		}
		eng, err := stm.NewWith(spec.Name, spec.Options)
		if err != nil {
			return err
		}
		p := d.params
		p.GroupAtomicParts = row.grouped
		s, err := core.Build(p, d.seed, eng.VarSpace())
		if err != nil {
			return err
		}
		picker := ops.NewPicker(profile)
		var done atomic.Int64
		err = d.drive(threads, func(t int) uint64 { return d.seed + uint64(t)*7919 }, func(_ int, r *rng.Rand) error {
			op := picker.Pick(r)
			err := eng.Atomic(func(tx stm.Tx) error {
				_, err := op.Run(tx, s, r)
				return err
			})
			done.Add(1)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", row.group, row.name, err)
		}
		st := eng.Stats()
		opsPerSec := float64(done.Load()) / d.duration.Seconds()
		d.printf("%-20s %-26s %12.0f %10.1f %14d\n",
			row.group, row.name, opsPerSec, 100*st.AbortRate(), st.Validations)
		d.record(engineStatsPoint(jsonPoint{
			Variant: row.group + "/" + row.name, Workload: profile.Workload.String(), Threads: threads, OpsPerSec: opsPerSec,
		}, st))
	}
	d.printf("\n")
	return nil
}
