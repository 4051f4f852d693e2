// Command experiments regenerates every table and figure of the STMBench7
// paper's evaluation on the local machine:
//
//	Figure 3  — max latency of long traversals, coarse vs medium locking
//	Figure 4  — throughput by workload, coarse vs medium, no long traversals
//	Table 3   — throughput, coarse locking vs the ASTM-style STM (ostm)
//	Figure 6  — throughput on the reduced op set, coarse/medium plus
//	            every registered STM engine (ostm, tl2, norec, ...)
//	headline  — §5's "T1 under ASTM is orders of magnitude slower than locks"
//
// Numbers are ops/s and milliseconds on this host; the paper's shape (who
// wins, rough factors, crossovers), not its absolute values, is the
// reproduction target. Run with -exp all (default) or a specific id.
//
// The overhead experiment measures the fixed per-transaction cost of every
// registered engine (ns/op and allocs/op on read-only, small-write,
// conflict-storm and long-traversal shapes) via testing.Benchmark — the
// same shapes the stm package's BenchmarkTxOverhead* report under go test.
//
// The orecs experiment sweeps the conflict-detection metadata axes:
// orec granularity (object vs striped tables of two sizes) crossed with
// commit-clock sharding for TL2, plus granularity for OSTM — reporting
// throughput, abort rate, the false-conflict share of aborts and the
// clock-shard spread per point. Checked in as BENCH_pr4.json.
//
// Every throughput experiment and the scenario sweep run their engines
// under the options given with -g, an engine-spec option list in
// stm.ParseEngineSpec syntax (-g striped=4096,shards=4 runs the paper's
// tables under that metadata layout, -g versions=4 under that chain depth,
// -g gc,coalesce under the pipelined commit protocols). A sweep's own
// axis overrides the keys it sweeps (mvcc, chaos); the orecs, commit and
// headline experiments pin their whole configuration and ignore -g.
//
// The snapshot experiment measures the read-only snapshot fast path of
// PR 5: a T1/T6-only read-only long-traversal loop plus full-mix and
// write-path controls, every STM engine, snapshot mode on vs off —
// checked in as BENCH_pr5.json. The other throughput experiments accept
// -ro-snapshot to run under a chosen dispatch mode.
//
// The mvcc experiment sweeps the multi-version read path of PR 6:
// version-chain depth K in {1, 2, 4, 8} crossed with the write-traffic
// scenarios (read-burst-write-storm, spike, steady) for tl2 and norec,
// reporting snapshot restarts, version-resolved reads, chain misses and
// retained version bytes per point — the space vs restarts curve. Checked
// in as BENCH_pr6.json.
//
// The chaos experiment exercises the robustness subsystem of PR 7 per STM
// engine: a deterministic fault plan (commit-path stalls plus forced
// aborts) under a write-dominated storm with a transaction deadline,
// serial fallback off vs on; a reproducibility pair (two identical seeded
// fixed-op runs must fire the identical fault count); an acceptance pair
// under an always-abort plan (fallback off surfaces deadline aborts,
// fallback on commits every transaction serially); and an open-loop
// overload point per engine showing the shedding knobs (lateness budget +
// bounded queue) holding response time under an arrival rate beyond
// capacity. Checked in as BENCH_pr7.json.
//
// The telemetry experiment exercises the PR 8 observability layer per STM
// engine: a read/write mixed run with the time-series sampler attached
// (about ten intervals per point — the throughput/abort/false-conflict
// curves land in -json as per-point series) and a transaction flight
// recorder on the engine (the recorded event volume proves the probe sites
// fire). Checked in as BENCH_pr8.json. With -listen ADDR the driver also
// serves a live ops endpoint (/metrics in Prometheus text format,
// /debug/pprof/*, expvar) for the whole sweep; the endpoint tracks
// whichever engine is currently under measurement.
//
// The commit experiment sweeps the PR 9 commit-pipelining layer on the
// commit-bound write storm (write-dominated mix, long traversals off):
// NOrec with group commit off vs on and striped TL2 with lock coalescing
// off vs on, each crossed with threads, plus the same variants under an
// open-loop zipf hotspot with affinity routing off vs on. Points carry the
// pipeline counters (batches published, batch sizes, coalesced lock
// acquisitions) and, for the open-loop rows, response-time percentiles.
// Checked in as BENCH_pr9.json; knobs-off rows are the regression guard
// against earlier PRs' write-storm numbers.
//
// The adaptive experiment pits the PR 10 self-tuning runtime against
// every pinned engine on the two scenarios whose best configuration is
// not knowable up front: hotspot-migration (the contention pattern walks
// across the structure mid-run) and chaos-storm (fault injection plus
// deadline pressure). Every pinned STM engine runs each scenario as the
// baseline grid; then the adaptive runtime runs it once per start engine,
// reconfiguring mid-run via quiesce-and-swap as the controller's policy
// rules fire. Points carry the reconfiguration count, quiesce stalls and
// the decision timeline; the verdict line compares each adaptive row
// against the best pinned row under the documented switch-cost budget.
// Checked in as BENCH_pr10.json.
//
// The scenarios experiment sweeps the built-in multi-phase scenario
// library (steady, ramp-up, spike, read-burst-write-storm,
// hotspot-migration, engine-sweep; the CI smoke scenario is skipped)
// across every strategy — both lock baselines plus every registered STM
// engine — recording per-phase throughput, abort rate and, for open-loop
// phases, p50/p99 response time. -seconds scales phase durations
// (1 keeps the scenarios' native lengths); the largest -threads value is
// the default worker count for phases that don't set their own.
//
// With -json FILE, every measured data point is also written as
// machine-readable JSON suitable for checking in as BENCH_<pr>.json, so
// performance PRs leave a trajectory future PRs can diff against:
//
//	experiments -exp overhead -json BENCH_pr2.json
//
// Example:
//
//	experiments -exp fig4 -size small -seconds 2 -threads 1,2,4,8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stmbench7 "repro"
	"repro/internal/benchshapes"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sync7"
	"repro/stm"
)

type config struct {
	size    string
	params  core.Params
	seconds float64
	threads []int
	seed    uint64
	// engine (-g) is applied to every throughput experiment and the
	// scenario sweep; a sweep's own axis overrides the keys it sweeps.
	engine stm.EngineOptions
	// disableSnap (-ro-snapshot=off) turns the read-only snapshot fast
	// path off for every throughput experiment; the snapshot experiment
	// sweeps both modes itself and ignores it.
	disableSnap bool
}

// engineWith applies an engine-spec option list over the run-wide -g
// options: the configuration of one sweep point.
func (cfg config) engineWith(opts string) stm.EngineOptions {
	o, err := cfg.engine.Apply(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	return o
}

// mustSpec parses an engine spec a sweep spells as a literal.
func mustSpec(s string) stm.EngineSpec {
	spec, err := stm.ParseEngineSpec(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	return spec
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// jsonPoint is one measured data point in -json output. Fields that do not
// apply to a point's kind are omitted; alloc fields use pointers so a
// genuine 0 allocs/op (the whole point of the overhead rows) survives
// omitempty.
type jsonPoint struct {
	Experiment   string   `json:"experiment"`
	Variant      string   `json:"variant"`
	Workload     string   `json:"workload,omitempty"`
	Threads      int      `json:"threads,omitempty"`
	OpsPerSec    float64  `json:"ops_per_sec,omitempty"`
	MaxLatencyMs float64  `json:"max_latency_ms,omitempty"`
	NsPerOp      float64  `json:"ns_per_op,omitempty"`
	AllocsPerOp  *int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp   *int64   `json:"bytes_per_op,omitempty"`
	AbortPct     *float64 `json:"abort_pct,omitempty"`
	Validations  uint64   `json:"validations,omitempty"`
	Commits      uint64   `json:"commits,omitempty"`
	Aborts       uint64   `json:"aborts,omitempty"`
	// Scenario-sweep fields: which scenario phase the point measures and,
	// for open-loop phases, the response-time percentiles (queueing
	// included).
	Scenario      string   `json:"scenario,omitempty"`
	Phase         string   `json:"phase,omitempty"`
	P50ResponseMs *float64 `json:"p50_response_ms,omitempty"`
	P99ResponseMs *float64 `json:"p99_response_ms,omitempty"`
	// Orec-sweep fields: the metadata configuration a point ran under and
	// the striping/clock diagnostics it produced. FalseConflictPct is the
	// share of conflict aborts attributed to stripe collisions;
	// ClockShardSpread is the end-of-run gap between the most- and
	// least-advanced commit-clock shards.
	Granularity      string   `json:"granularity,omitempty"`
	OrecStripes      int      `json:"orec_stripes,omitempty"`
	ClockShards      int      `json:"clock_shards,omitempty"`
	FalseConflictPct *float64 `json:"false_conflict_pct,omitempty"`
	ClockShardSpread uint64   `json:"clock_shard_spread,omitempty"`
	// Snapshot-sweep fields: whether the read-only snapshot fast path
	// was enabled for the point, how many commits it served and how many
	// snapshot restarts (rv refreshes / epoch retries) it paid.
	ROSnapshot       string `json:"ro_snapshot,omitempty"`
	SnapshotTxs      uint64 `json:"snapshot_txs,omitempty"`
	SnapshotRestarts uint64 `json:"snapshot_restarts,omitempty"`
	// Mvcc-sweep fields: the version-chain depth a point ran under and
	// what the multi-version read path did — snapshot reads resolved
	// from older versions, chain-truncation misses, and the cumulative
	// bytes of superseded version boxes retained (the space side of the
	// restarts-for-space trade).
	Versions      int    `json:"versions,omitempty"`
	VersionReads  uint64 `json:"version_reads,omitempty"`
	VersionMisses uint64 `json:"version_misses,omitempty"`
	VersionBytes  uint64 `json:"version_bytes,omitempty"`
	// Chaos-sweep fields: the robustness configuration a point ran under
	// (fault plan, transaction deadline, serial fallback on/off) and what
	// the subsystem did — faults fired, deadline aborts surfaced, serial
	// escalations taken, operations that failed, and for open-loop points
	// the arrivals shed by the overload knobs.
	FaultPlan       string   `json:"fault_plan,omitempty"`
	TxDeadline      string   `json:"tx_deadline,omitempty"`
	SerialFallback  string   `json:"serial_fallback,omitempty"`
	InjectedFaults  uint64   `json:"injected_faults,omitempty"`
	TimeoutAborts   uint64   `json:"timeout_aborts,omitempty"`
	SerialFallbacks uint64   `json:"serial_fallbacks,omitempty"`
	FailedOps       int64    `json:"failed_ops,omitempty"`
	Arrivals        int64    `json:"arrivals,omitempty"`
	ShedOps         int64    `json:"shed_ops,omitempty"`
	ShedPct         *float64 `json:"shed_pct,omitempty"`
	// Commit-pipelining-sweep fields: which knobs a point ran under
	// (group commit, lock coalescing, affinity routing, each "on"/"off")
	// and what the pipeline did — batches published, transactions those
	// batches carried (leader + followers), and commit locks taken via
	// coalesced group-word CAS runs. For open-loop affinity points the
	// response percentiles land in P50/P99ResponseMs like the scenario
	// rows.
	GroupCommit     string `json:"group_commit,omitempty"`
	Coalescing      string `json:"coalescing,omitempty"`
	Affinity        string `json:"affinity,omitempty"`
	GroupCommits    uint64 `json:"group_commits,omitempty"`
	GroupCommitSize uint64 `json:"group_commit_size,omitempty"`
	CoalescedLocks  uint64 `json:"coalesced_locks,omitempty"`
	// Adaptive-sweep fields: whether the self-tuning runtime drove the
	// point ("on" rows start on Variant's engine and may reconfigure
	// mid-run; "off" rows are the pinned baselines), how many
	// quiesce-and-swap reconfigurations the controller committed, how many
	// drains hit the hard deadline, and the decision timeline itself.
	Adaptive         string   `json:"adaptive,omitempty"`
	Reconfigurations uint64   `json:"reconfigurations,omitempty"`
	ReconfigStalls   uint64   `json:"reconfig_stalls,omitempty"`
	Decisions        []string `json:"decisions,omitempty"`
	VsBestPinnedPct  *float64 `json:"vs_best_pinned_pct,omitempty"`
	// Telemetry-sweep fields: the sampler cadence a point ran under, the
	// per-interval time series it produced (throughput, abort and
	// false-conflict percentages, snapshot restarts, shed rate per
	// interval), and the flight-recorder volume (events retained and ring
	// overwrites) the run generated.
	SampleMs     float64                 `json:"sample_ms,omitempty"`
	Series       []stmbench7.SamplePoint `json:"series,omitempty"`
	TraceEvents  int                     `json:"trace_events,omitempty"`
	TraceDropped uint64                  `json:"trace_dropped,omitempty"`
}

// jsonReport is the -json document. Size/Seconds/Threads echo the driver
// flags and describe the throughput/latency experiments; overhead points
// ignore them (testing.Benchmark budgets its own ~1s) and carry the thread
// count they actually ran with in their own threads field.
type jsonReport struct {
	Size    string  `json:"size"`
	Seconds float64 `json:"seconds"`
	Threads []int   `json:"threads"`
	Seed    uint64  `json:"seed"`
	// Engine/ROSnapshot echo the -g options and -ro-snapshot mode the
	// run-wide experiments used (sweeps stamp their own axis on each
	// point instead).
	Engine     string `json:"engine,omitempty"`
	ROSnapshot string `json:"ro_snapshot,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	// GoMaxProcs, Engines and Strategies pin down the runtime
	// configuration the points were measured under, so checked-in
	// BENCH_*.json files are self-describing across machines and PRs.
	GoMaxProcs int         `json:"gomaxprocs"`
	Engines    []string    `json:"engines"`
	Strategies []string    `json:"strategies"`
	Points     []jsonPoint `json:"points"`
}

var (
	jsonOut *jsonReport // nil unless -json was given
	curExp  string      // experiment id being run, for recorded points

	// telemetryReg is the live /metrics registry (nil unless -listen was
	// given). Measurements repoint it at their engine as they start, so
	// the endpoint always shows the engine currently under load.
	telemetryReg *stmbench7.TelemetryRegistry
)

// record appends a data point to the -json report (no-op without -json).
func record(p jsonPoint) {
	if jsonOut == nil {
		return
	}
	if p.Experiment == "" {
		p.Experiment = curExp
	}
	jsonOut.Points = append(jsonOut.Points, p)
}

func i64ptr(v int64) *int64     { return &v }
func f64ptr(v float64) *float64 { return &v }

// experiments is the experiment table: -exp resolves against it, "all"
// runs it in order, and the help text and the unknown-experiment error
// list it.
var experiments = []struct {
	name string
	run  func(config)
}{
	{"fig3", figure3},
	{"fig4", figure4},
	{"table3", table3},
	{"fig6", figure6},
	{"headline", headline},
	{"ablations", ablations},
	{"overhead", overhead},
	{"scenarios", scenarioSweep},
	{"orecs", orecSweep},
	{"snapshot", snapshotSweep},
	{"mvcc", mvccSweep},
	{"chaos", chaosSweep},
	{"telemetry", telemetrySweep},
	{"commit", commitSweep},
	{"adaptive", adaptiveSweep},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", ")+" or all")
	size := flag.String("size", "small", "structure size: tiny, small or medium (paper scale)")
	seconds := flag.Float64("seconds", 1.0, "measurement duration per data point, in seconds")
	threadsFlag := flag.String("threads", "1,2,4,8", "comma-separated thread counts")
	seed := flag.Uint64("seed", 42, "benchmark seed")
	engineFlag := flag.String("g", "", "engine options for every throughput experiment, as an engine-spec option list (e.g. striped=4096,shards=4)")
	roSnapshot := flag.String("ro-snapshot", "on", "read-only snapshot fast path: on or off")
	jsonPath := flag.String("json", "", "also write machine-readable results to this file (\"-\" for stdout)")
	listen := flag.String("listen", "", "serve live telemetry (/metrics, /debug/pprof/, expvar) on this address for the duration of the driver")
	flag.Parse()

	engine, err := stm.EngineOptions{}.Apply(*engineFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: bad -g: %v\n", err)
		os.Exit(1)
	}

	params, ok := core.Named(*size)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown size %q\n", *size)
		os.Exit(1)
	}
	var threads []int
	for _, part := range strings.Split(*threadsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "experiments: bad thread count %q\n", part)
			os.Exit(1)
		}
		threads = append(threads, n)
	}
	var disableSnap bool
	switch *roSnapshot {
	case "on":
	case "off":
		disableSnap = true
	default:
		fmt.Fprintf(os.Stderr, "experiments: bad -ro-snapshot %q (want on or off)\n", *roSnapshot)
		os.Exit(1)
	}
	cfg := config{
		size: *size, params: params, seconds: *seconds, threads: threads, seed: *seed,
		engine: engine, disableSnap: disableSnap,
	}
	if *jsonPath != "" {
		jsonOut = &jsonReport{
			Size: cfg.size, Seconds: cfg.seconds, Threads: cfg.threads, Seed: cfg.seed,
			Engine: cfg.engine.String(), ROSnapshot: *roSnapshot,
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			Engines: stm.Registered(), Strategies: sync7.Strategies(),
		}
	}

	if *listen != "" {
		telemetryReg = stmbench7.NewTelemetryRegistry(nil)
		srv, err := stmbench7.NewTelemetryServer(*listen, telemetryReg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -listen: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: telemetry on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
	}

	fmt.Printf("STMBench7 experiment driver — structure %q (%d composite x %d atomic parts), %gs per point\n\n",
		cfg.size, params.NumCompParts, params.NumAtomicPerComp, cfg.seconds)

	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			curExp = e.name
			e.run(cfg)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want %s or all)\n", *exp, strings.Join(names, ", "))
		os.Exit(1)
	}
	if jsonOut != nil {
		writeJSON(*jsonPath)
	}
}

// writeJSON emits the collected report.
func writeJSON(path string) {
	data, err := json.MarshalIndent(jsonOut, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: marshal -json: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if path == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: write -json: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d data points to %s\n", len(jsonOut.Points), path)
}

// measure runs one data point, records it for -json, and returns the
// result.
func measure(cfg config, o stmbench7.Options) *stmbench7.Result {
	o.Params = cfg.params
	o.Seed = cfg.seed
	o.Duration = time.Duration(cfg.seconds * float64(time.Second))
	o.Engine = cfg.engine
	o.DisableROSnapshot = cfg.disableSnap
	ex, s, err := stmbench7.Setup(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if telemetryReg != nil {
		telemetryReg.SetStats(ex.Engine().Stats)
	}
	res, err := stmbench7.RunOn(o, ex, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	es := res.EngineStats
	record(jsonPoint{
		Variant:     o.Strategy,
		Workload:    o.Workload.String(),
		Threads:     o.Threads,
		OpsPerSec:   res.Throughput(),
		AbortPct:    f64ptr(100 * es.AbortRate()),
		Validations: es.Validations,
		Commits:     es.Commits,
		Aborts:      es.ConflictAborts,
	})
	return res
}

// figure3: maximum latency of T1 (read-dominated) and T2b (write-dominated)
// with all operations enabled, coarse vs medium.
//
// Methodology: at realistic structure sizes a specific long traversal is
// drawn too rarely for its max latency to be sampled from the mixed run, so
// one dedicated thread repeatedly executes the measured traversal while the
// remaining threads run the full operation mix — the same latency-under-load
// quantity Figure 3 plots.
func figure3(cfg config) {
	fmt.Println("=== Figure 3: maximum latency of long traversals, all operations enabled ===")
	fmt.Println("    (paper: medium-grained latency above coarse-grained — long traversals")
	fmt.Println("     queue on 9+ locks instead of 1)")
	fmt.Printf("%8s | %14s %14s | %14s %14s\n", "threads",
		"R/T1 medium", "R/T1 coarse", "W/T2b medium", "W/T2b coarse")
	for _, th := range cfg.threads {
		row := make([]float64, 4)
		i := 0
		for _, pt := range []struct {
			w  ops.Workload
			op string
		}{{ops.ReadDominated, "T1"}, {ops.WriteDominated, "T2b"}} {
			for _, strat := range []string{"medium", "coarse"} {
				row[i] = maxTraversalLatency(cfg, strat, pt.w, pt.op, th)
				i++
			}
		}
		fmt.Printf("%8d | %11.2fms %11.2fms | %11.2fms %11.2fms\n", th, row[0], row[1], row[2], row[3])
	}
	fmt.Println()
}

// maxTraversalLatency runs `threads-1` background mixed-workload threads
// plus one thread looping the named traversal for the configured duration;
// it returns the traversal's maximum observed latency in milliseconds.
func maxTraversalLatency(cfg config, strategy string, w ops.Workload, opName string, threads int) float64 {
	ex, err := sync7.New(sync7.Config{Strategy: strategy, NumAssmLevels: cfg.params.NumAssmLevels})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	s, err := core.Build(cfg.params, cfg.seed, ex.Engine().VarSpace())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	traversal, _ := ops.ByName(opName)
	profile := ops.Profile{Workload: w, LongTraversals: true, StructureMods: true}
	picker := ops.NewPicker(profile)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for t := 0; t < threads-1; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rng.New(cfg.seed + uint64(t) + 1)
			for !stop.Load() {
				op := picker.Pick(r)
				ex.Execute(op, s, r)
			}
		}(t)
	}
	r := rng.New(cfg.seed)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var maxTTC time.Duration
	runs := 0
	for time.Now().Before(deadline) || runs == 0 {
		t0 := time.Now()
		if _, err := ex.Execute(traversal, s, r); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if d := time.Since(t0); d > maxTTC {
			maxTTC = d
		}
		runs++
	}
	stop.Store(true)
	wg.Wait()
	ms := float64(maxTTC.Microseconds()) / 1000.0
	record(jsonPoint{
		Variant:      strategy + "/" + opName,
		Workload:     w.String(),
		Threads:      threads,
		MaxLatencyMs: ms,
	})
	return ms
}

// figure4: total throughput with long traversals disabled, three workloads,
// coarse vs medium.
func figure4(cfg config) {
	fmt.Println("=== Figure 4: total throughput [ops/s], long traversals disabled ===")
	fmt.Println("    (paper: medium ~= coarse at 1 thread, pulls ahead with >= 2 threads,")
	fmt.Println("     advantage shrinks as the update share grows)")
	fmt.Printf("%8s | %10s %10s | %10s %10s | %10s %10s\n", "threads",
		"R med", "R coarse", "RW med", "RW coarse", "W med", "W coarse")
	for _, th := range cfg.threads {
		var row []float64
		for _, w := range []ops.Workload{ops.ReadDominated, ops.ReadWrite, ops.WriteDominated} {
			for _, strat := range []string{"medium", "coarse"} {
				res := measure(cfg, stmbench7.Options{
					Threads:        th,
					Workload:       w,
					LongTraversals: false,
					StructureMods:  true,
					Strategy:       strat,
				})
				row = append(row, res.Throughput())
			}
		}
		fmt.Printf("%8d | %10.0f %10.0f | %10.0f %10.0f | %10.0f %10.0f\n",
			th, row[0], row[1], row[2], row[3], row[4], row[5])
	}
	fmt.Println()
}

// table3: throughput of coarse locking vs the ASTM-style STM with long
// traversals disabled (the paper's 2-4 orders-of-magnitude gap).
func table3(cfg config) {
	fmt.Println("=== Table 3: total throughput [ops/s], coarse locking vs OSTM (ASTM variant), long traversals disabled ===")
	fmt.Printf("%8s | %12s %12s | %12s %12s | %12s %12s\n", "threads",
		"R lock", "R ostm", "RW lock", "RW ostm", "W lock", "W ostm")
	for _, th := range cfg.threads {
		var row []float64
		for _, w := range []ops.Workload{ops.ReadDominated, ops.ReadWrite, ops.WriteDominated} {
			for _, strat := range []string{"coarse", "ostm"} {
				res := measure(cfg, stmbench7.Options{
					Threads:        th,
					Workload:       w,
					LongTraversals: false,
					StructureMods:  true,
					Strategy:       strat,
				})
				row = append(row, res.Throughput())
			}
		}
		fmt.Printf("%8d | %12.1f %12.1f | %12.1f %12.1f | %12.1f %12.1f\n",
			th, row[0], row[1], row[2], row[3], row[4], row[5])
	}
	fmt.Println()
}

// figure6: the reduced operation set (no long operations, no manual or
// large-index writers): the STM becomes competitive, like the synthetic
// benchmarks STMs were usually evaluated on. Every registered STM engine
// is a column, so a new engine joins the comparison automatically.
func figure6(cfg config) {
	strategies := append([]string{"medium", "coarse"}, sync7.STMStrategies()...)
	fmt.Println("=== Figure 6: total throughput [ops/s], reduced operation set (all long operations disabled) ===")
	fmt.Println("    (paper: on this op set ASTM scales like medium locking for read-dominated")
	fmt.Println("     workloads and beats coarse locking given enough threads)")
	for _, w := range []ops.Workload{ops.ReadDominated, ops.ReadWrite, ops.WriteDominated} {
		fmt.Printf("  workload %v\n", w)
		fmt.Printf("%8s |", "threads")
		for _, strat := range strategies {
			fmt.Printf(" %10s", strat)
		}
		fmt.Println()
		for _, th := range cfg.threads {
			fmt.Printf("%8d |", th)
			for _, strat := range strategies {
				res := measure(cfg, stmbench7.Options{
					Threads:        th,
					Workload:       w,
					LongTraversals: false,
					StructureMods:  true,
					Reduced:        true,
					Strategy:       strat,
				})
				fmt.Printf(" %10.0f", res.Throughput())
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

// ablations prints the design-choice comparison tables: OSTM knobs
// (validation strategy, read visibility, acquisition mode, contention
// manager), TL2's timestamp extension, and the §5 data-layout
// optimizations. All run the reduced read-write mix at the configured size
// on 8 threads (or the largest configured thread count).
func ablations(cfg config) {
	threads := 8
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	profile := ops.Profile{Workload: ops.ReadWrite, LongTraversals: false, StructureMods: true, Reduced: true}

	type abl struct {
		group string
		name  string
		mkEng func() stm.Engine
		tweak func(*core.Params)
	}
	// spec builds a row's engine from an engine spec; Go literals remain
	// for the ablation knobs no spec key names.
	spec := func(s string) func() stm.Engine {
		return func() stm.Engine {
			sp := mustSpec(s)
			eng, err := stm.NewWith(sp.Name, sp.Options)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			return eng
		}
	}
	rows := []abl{
		{"ostm validation", "incremental (faithful)", func() stm.Engine { return stm.NewOSTM() }, nil},
		{"ostm validation", "commit-time only", spec("ostm:ctv"), nil},
		{"ostm validation", "commit-counter heuristic", func() stm.Engine { return stm.NewOSTMWith(stm.OSTMConfig{CommitCounterHeuristic: true}) }, nil},
		{"ostm reads", "invisible (faithful)", func() stm.Engine { return stm.NewOSTM() }, nil},
		{"ostm reads", "visible", spec("ostm:visible"), nil},
		{"ostm acquire", "eager (faithful)", func() stm.Engine { return stm.NewOSTM() }, nil},
		{"ostm acquire", "lazy", func() stm.Engine { return stm.NewOSTMWith(stm.OSTMConfig{Acquire: stm.LazyAcquire}) }, nil},
		{"ostm acquire", "adaptive", func() stm.Engine { return stm.NewOSTMWith(stm.OSTMConfig{Acquire: stm.AdaptiveAcquire}) }, nil},
		{"contention manager", "polka (paper)", func() stm.Engine { return stm.NewOSTM() }, nil},
		{"contention manager", "karma", spec("ostm:cm=karma"), nil},
		{"contention manager", "aggressive", spec("ostm:cm=aggressive"), nil},
		{"contention manager", "timid", spec("ostm:cm=timid"), nil},
		{"contention manager", "backoff", spec("ostm:cm=backoff"), nil},
		{"tl2", "plain", func() stm.Engine { return stm.NewTL2() }, nil},
		{"tl2", "timestamp extension", func() stm.Engine { return stm.NewTL2With(stm.TL2Config{TimestampExtension: true}) }, nil},
		{"norec", "value validation (faithful)", func() stm.Engine { return stm.NewNOrec() }, nil},
		{"norec", "reference validation", func() stm.Engine { return stm.NewNOrecWith(stm.NOrecConfig{ReferenceValidation: true}) }, nil},
		{"layout (tl2)", "faithful", func() stm.Engine { return stm.NewTL2() }, nil},
		{"layout (tl2)", "chunked manual", func() stm.Engine { return stm.NewTL2() }, func(p *core.Params) { p.ManualChunks = 8 }},
		{"layout (tl2)", "grouped parts", func() stm.Engine { return stm.NewTL2() }, func(p *core.Params) { p.GroupAtomicParts = true }},
		{"layout (tl2)", "tx b-tree indexes", func() stm.Engine { return stm.NewTL2() }, func(p *core.Params) { p.TxIndexes = true }},
	}

	fmt.Printf("=== Ablations: reduced read-write mix, %d threads, %gs per row ===\n", threads, cfg.seconds)
	fmt.Printf("%-20s %-26s %12s %10s %14s\n", "group", "variant", "ops/s", "abort-%", "validations")
	lastGroup := ""
	for _, row := range rows {
		if row.group != lastGroup && lastGroup != "" {
			fmt.Println()
		}
		lastGroup = row.group
		p := cfg.params
		if row.tweak != nil {
			row.tweak(&p)
		}
		eng := row.mkEng()
		s, err := core.Build(p, cfg.seed, eng.VarSpace())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		picker := ops.NewPicker(profile)
		var stop atomic.Bool
		var done atomic.Int64
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				r := rng.New(cfg.seed + uint64(t)*7919)
				for !stop.Load() {
					op := picker.Pick(r)
					eng.Atomic(func(tx stm.Tx) error {
						_, err := op.Run(tx, s, r)
						return err
					})
					done.Add(1)
				}
			}(t)
		}
		dur := time.Duration(cfg.seconds * float64(time.Second))
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		st := eng.Stats()
		fmt.Printf("%-20s %-26s %12.0f %10.1f %14d\n",
			row.group, row.name, float64(done.Load())/dur.Seconds(), 100*st.AbortRate(), st.Validations)
		record(jsonPoint{
			Variant:     row.group + "/" + row.name,
			Workload:    profile.Workload.String(),
			Threads:     threads,
			OpsPerSec:   float64(done.Load()) / dur.Seconds(),
			AbortPct:    f64ptr(100 * st.AbortRate()),
			Validations: st.Validations,
			Commits:     st.Commits,
			Aborts:      st.ConflictAborts,
		})
	}
	fmt.Println()
}

// headline reproduces §5's single-number claim: one execution of T1 under
// the ASTM-style STM versus under locking (the paper saw ~30 min vs ~1.5 s
// at full scale; the ratio is the reproduction target).
//
// T1 is read-only, so the PR-5 snapshot dispatch — on by default
// everywhere else — would bypass exactly the validation pathology this
// experiment exists to reproduce; the faithful rows therefore pin the
// validating path, and the final rows show the same traversal under the
// snapshot fast path (the in-repo fix for the pathology).
func headline(cfg config) {
	fmt.Println("=== §5 headline: single execution of long traversal T1, 1 thread ===")
	t1, _ := ops.ByName("T1")
	type point struct {
		name string
		cfg  sync7.Config
	}
	points := []point{
		{"coarse lock", sync7.Config{Strategy: "coarse", NumAssmLevels: cfg.params.NumAssmLevels}},
		{"medium lock", sync7.Config{Strategy: "medium", NumAssmLevels: cfg.params.NumAssmLevels}},
		{"tl2", sync7.Config{Strategy: "tl2", DisableROSnapshot: true}},
		{"norec", sync7.Config{Strategy: "norec", DisableROSnapshot: true}},
		{"ostm (ASTM variant)", sync7.Config{Strategy: "ostm", DisableROSnapshot: true}},
		{"ostm, commit-time validation", sync7.Config{Strategy: "ostm", Engine: stm.EngineOptions{CommitTimeValidationOnly: true}, DisableROSnapshot: true}},
		{"ostm, visible reads", sync7.Config{Strategy: "ostm", Engine: stm.EngineOptions{VisibleReads: true}, DisableROSnapshot: true}},
		{"tl2, ro-snapshot", sync7.Config{Strategy: "tl2"}},
		{"ostm, ro-snapshot", sync7.Config{Strategy: "ostm"}},
	}
	var baseline time.Duration
	for _, pt := range points {
		ex, err := sync7.New(pt.cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		s, err := core.Build(cfg.params, cfg.seed, ex.Engine().VarSpace())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		r := rng.New(cfg.seed)
		t0 := time.Now()
		if _, err := ex.Execute(t1, s, r); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: T1:", err)
			os.Exit(1)
		}
		el := time.Since(t0)
		if baseline == 0 {
			baseline = el
		}
		stats := ex.Engine().Stats()
		fmt.Printf("  %-32s %12v   (%6.1fx coarse)   reads %10d  validations %12d\n",
			pt.name, el.Round(time.Microsecond), float64(el)/float64(baseline), stats.Reads, stats.Validations)
		record(jsonPoint{
			Variant:     pt.name,
			Threads:     1,
			NsPerOp:     float64(el.Nanoseconds()),
			Validations: stats.Validations,
		})
	}
	fmt.Println("    (paper at full scale: ~half an hour under ASTM vs ~1.5 s under locking;")
	fmt.Println("     the O(k^2) validation count above is the mechanism)")
	fmt.Println()
}

// overhead measures the fixed per-transaction cost of every registered
// engine on the shapes that bracket STMBench7's operation mix (defined
// once in internal/benchshapes, shared with the stm package's
// BenchmarkTxOverhead* suite so these numbers — recorded in BENCH_*.json —
// always correspond to the go test benchmarks): a read-only short
// transaction, a small read-write transaction, a conflict storm on one
// Var, and a long read-only traversal over 1024 Vars.
func overhead(cfg config) {
	fmt.Println("=== Transaction overhead: per-engine fixed costs (testing.Benchmark) ===")
	fmt.Printf("    (~1s per point via testing.Benchmark; -seconds/-threads do not apply here —\n")
	fmt.Printf("     serial shapes run 1 goroutine, the storm runs GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %-14s %12s %12s %12s %12s\n", "engine", "shape", "ns/op", "allocs/op", "B/op", "ops/s")
	for _, name := range stm.Registered() {
		for _, sh := range benchshapes.All() {
			if sh.Skip != nil && sh.Skip(name) {
				continue
			}
			r := testing.Benchmark(func(b *testing.B) {
				// Fresh engine per invocation: testing.Benchmark re-runs
				// this function with growing b.N, and the storm shape's
				// lost-update check counts commits from zero each time.
				eng, err := stm.NewWith(name, stm.EngineOptions{Versions: sh.Versions})
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					os.Exit(1)
				}
				fn, check := sh.Setup(eng)
				b.ReportAllocs()
				b.ResetTimer()
				if sh.Parallel {
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							sh.Run(eng, fn)
						}
					})
				} else {
					for i := 0; i < b.N; i++ {
						sh.Run(eng, fn)
					}
				}
				b.StopTimer()
				if check != nil {
					if err := check(b.N); err != nil {
						fmt.Fprintf(os.Stderr, "experiments: overhead %s/%s: %v\n", name, sh.Name, err)
						os.Exit(1)
					}
				}
			})
			opsPerSec := 0.0
			if ns := r.NsPerOp(); ns > 0 {
				opsPerSec = 1e9 / float64(ns)
			}
			fmt.Printf("%-8s %-14s %12d %12d %12d %12.0f\n",
				name, sh.Name, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp(), opsPerSec)
			// Overhead points ignore -seconds/-threads (testing.Benchmark
			// budgets ~1s itself); Threads records what actually ran so
			// the checked-in JSON describes the measurement faithfully.
			pointThreads := 1
			if sh.Parallel {
				pointThreads = runtime.GOMAXPROCS(0)
			}
			record(jsonPoint{
				Experiment:  "overhead",
				Variant:     name + "/" + sh.Name,
				Threads:     pointThreads,
				NsPerOp:     float64(r.NsPerOp()),
				AllocsPerOp: i64ptr(r.AllocsPerOp()),
				BytesPerOp:  i64ptr(r.AllocedBytesPerOp()),
				OpsPerSec:   opsPerSec,
			})
		}
	}
	fmt.Println()
}

// orecSweep sweeps the conflict-detection metadata axes introduced by the
// orec layer: for TL2, granularity (object vs striped at two table sizes)
// crossed with commit-clock sharding; for OSTM, granularity alone (it has
// no global clock). Rows report throughput, abort rate, the share of
// aborts that were stripe-collision artifacts, and the clock-shard spread
// — the Synchrobench-style point that protocol behavior diverges once
// lock-table shape and clock contention vary. The object/1-shard TL2 row
// is the pre-orec baseline: it must stay competitive with earlier PRs'
// BENCH numbers.
func orecSweep(cfg config) {
	var variants []stm.EngineSpec
	for _, v := range []string{
		"tl2:shards=1", "tl2:shards=4", "tl2:shards=8",
		"tl2:striped=4096,shards=1", "tl2:striped=4096,shards=4", "tl2:striped=256,shards=4",
		"ostm", "ostm:striped=4096", "ostm:striped=256",
	} {
		variants = append(variants, mustSpec(v))
	}
	label := func(v stm.EngineSpec) string {
		s := v.Name + "/" + v.Options.Granularity.String()
		if v.Options.Granularity == stm.StripedGranularity {
			s += fmt.Sprintf("-%d", v.Options.OrecStripes)
		}
		if v.Options.ClockShards > 1 {
			s += fmt.Sprintf("/c%d", v.Options.ClockShards)
		}
		return s
	}

	fmt.Println("=== Orec metadata sweep: granularity x clock shards, read-write mix ===")
	fmt.Println("    (object/1-shard tl2 is the pre-orec baseline; striped rows trade false")
	fmt.Println("     conflicts for a bounded metadata footprint; sharded rows spread the")
	fmt.Println("     commit clock across cache lines)")
	fmt.Printf("%-22s %8s %12s %8s %8s %8s %10s\n",
		"variant", "threads", "ops/s", "abort%", "false%", "shards", "spread")
	for _, v := range variants {
		for _, th := range cfg.threads {
			res := measureOrec(cfg, v, th)
			es := res.EngineStats
			fmt.Printf("%-22s %8d %12.0f %8.2f %8.2f %8d %10d\n",
				label(v), th, res.Throughput(), 100*es.AbortRate(),
				100*es.FalseConflictRate(), es.ClockShards, es.ClockShardSpread)
			record(jsonPoint{
				Variant:          label(v),
				Workload:         ops.ReadWrite.String(),
				Threads:          th,
				OpsPerSec:        res.Throughput(),
				AbortPct:         f64ptr(100 * es.AbortRate()),
				Commits:          es.Commits,
				Aborts:           es.ConflictAborts,
				Validations:      es.Validations,
				Granularity:      v.Options.Granularity.String(),
				OrecStripes:      v.Options.OrecStripes,
				ClockShards:      v.Options.ClockShards,
				FalseConflictPct: f64ptr(100 * es.FalseConflictRate()),
				ClockShardSpread: es.ClockShardSpread,
			})
		}
	}
	fmt.Println()
}

// measureOrec runs one orec-sweep data point.
func measureOrec(cfg config, spec stm.EngineSpec, threads int) *stmbench7.Result {
	o := stmbench7.Options{
		Params:         cfg.params,
		Seed:           cfg.seed,
		Duration:       time.Duration(cfg.seconds * float64(time.Second)),
		Threads:        threads,
		Workload:       ops.ReadWrite,
		LongTraversals: false,
		StructureMods:  true,
		Strategy:       spec.Name,
		Engine:         spec.Options,
	}
	res, err := stmbench7.Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	return res
}

// snapshotSweep measures the read-only snapshot fast path: every STM
// engine, snapshot mode on vs off, on five shapes —
//
//   - traversal-micro: the benchshapes traverse1024/snaptraverse1024 pair
//     (a 1024-Var read-only transaction) via testing.Benchmark — the
//     engine-level long-traversal cost with no operation code around it.
//     This is where the removed per-read work (read-set logging, spill
//     index, validation) is undiluted.
//   - t1, t6, t1t6: closed loops over the canonical read-only long
//     traversals (T1, the full assembly-hierarchy walk with the atomic
//     graph DFS; T6, its root-skipping variant; and the uniform mix of
//     both) — the §5 pathology shape at full benchmark scale, where the
//     operation's own graph walk and the structure's cache footprint
//     dilute the per-read engine win (T6, nearly pure reads, keeps most
//     of it; T1 pays the DFS bookkeeping on top).
//   - fullmix: the paper's read-dominated mix with traversals and SMs
//     enabled — snapshot dispatch rides along for every ReadOnly op.
//   - writepath: the read-write mix with long traversals disabled (the
//     PR-4 orec-sweep shape) — a control: off-mode numbers here are the
//     PR-4 baseline, and on-mode only moves through the mix's read-only
//     short operations.
//
// Each point records the snapshot counters, so the JSON shows how many
// commits the fast path served and what it paid in restarts.
func snapshotSweep(cfg config) {
	fmt.Println("=== Snapshot sweep: read-only fast path on vs off, every STM engine ===")
	fmt.Println("    (traversal-micro = 1024-Var read-only tx, engine cost only;")
	fmt.Println("     t1/t6/t1t6 = closed loops over the read-only long traversals;")
	fmt.Println("     fullmix = read-dominated Table 2 mix; writepath = rw mix, no traversals)")
	fmt.Printf("%-8s %-16s %-5s %8s %12s %12s %10s %8s\n",
		"engine", "shape", "snap", "threads", "ops/s", "snap-txs", "restarts", "abort%")
	modes := []struct {
		label   string
		disable bool
	}{{"on", false}, {"off", true}}

	// Engine-level long-traversal pair (one point per engine and mode;
	// testing.Benchmark budgets its own duration, single-threaded).
	for _, strat := range sync7.STMStrategies() {
		for _, mode := range modes {
			shapeName := "snaptraverse1024"
			if mode.disable {
				shapeName = "traverse1024"
			}
			sh, ok := benchshapes.ByName(shapeName)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown shape %q\n", shapeName)
				os.Exit(1)
			}
			r := testing.Benchmark(func(b *testing.B) {
				eng, err := stm.New(strat)
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					os.Exit(1)
				}
				fn, _ := sh.Setup(eng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sh.Run(eng, fn); err != nil {
						fmt.Fprintf(os.Stderr, "experiments: snapshot %s/%s: %v\n", strat, shapeName, err)
						os.Exit(1)
					}
				}
			})
			opsPerSec := 0.0
			if ns := r.NsPerOp(); ns > 0 {
				opsPerSec = 1e9 / float64(ns)
			}
			fmt.Printf("%-8s %-16s %-5s %8d %12.0f %12s %10s %8s\n",
				strat, "traversal-micro", mode.label, 1, opsPerSec, "-", "-", "-")
			record(jsonPoint{
				Variant:    strat + "/traversal-micro",
				Threads:    1,
				NsPerOp:    float64(r.NsPerOp()),
				OpsPerSec:  opsPerSec,
				ROSnapshot: mode.label,
			})
		}
	}

	// Macro traversal loops at full benchmark scale.
	macro := []struct {
		shape string
		ops   []string
	}{
		{"t1", []string{"T1"}},
		{"t6", []string{"T6"}},
		{"t1t6", []string{"T1", "T6"}},
	}
	for _, strat := range sync7.STMStrategies() {
		for _, m := range macro {
			for _, mode := range modes {
				for _, th := range cfg.threads {
					opsPerSec, es := traversalThroughput(cfg, strat, mode.disable, th, m.ops)
					fmt.Printf("%-8s %-16s %-5s %8d %12.0f %12d %10d %8.1f\n",
						strat, m.shape, mode.label, th, opsPerSec,
						es.SnapshotTxs, es.SnapshotRestarts, 100*es.AbortRate())
					record(jsonPoint{
						Variant:          strat + "/" + m.shape,
						Threads:          th,
						OpsPerSec:        opsPerSec,
						AbortPct:         f64ptr(100 * es.AbortRate()),
						Commits:          es.Commits,
						Aborts:           es.ConflictAborts,
						Validations:      es.Validations,
						ROSnapshot:       mode.label,
						SnapshotTxs:      es.SnapshotTxs,
						SnapshotRestarts: es.SnapshotRestarts,
					})
				}
			}
		}
	}
	controls := []struct {
		shape          string
		workload       ops.Workload
		longTraversals bool
	}{
		{"fullmix", ops.ReadDominated, true},
		{"writepath", ops.ReadWrite, false},
	}
	threads := 1
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	for _, strat := range sync7.STMStrategies() {
		for _, ctl := range controls {
			for _, mode := range modes {
				o := stmbench7.Options{
					Params:            cfg.params,
					Seed:              cfg.seed,
					Duration:          time.Duration(cfg.seconds * float64(time.Second)),
					Threads:           threads,
					Workload:          ctl.workload,
					LongTraversals:    ctl.longTraversals,
					StructureMods:     true,
					Strategy:          strat,
					Engine:            cfg.engine,
					DisableROSnapshot: mode.disable,
				}
				res, err := stmbench7.Run(o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
				es := res.EngineStats
				fmt.Printf("%-8s %-16s %-5s %8d %12.0f %12d %10d %8.1f\n",
					strat, ctl.shape, mode.label, threads, res.Throughput(),
					es.SnapshotTxs, es.SnapshotRestarts, 100*es.AbortRate())
				record(jsonPoint{
					Variant:          strat + "/" + ctl.shape,
					Workload:         ctl.workload.String(),
					Threads:          threads,
					OpsPerSec:        res.Throughput(),
					AbortPct:         f64ptr(100 * es.AbortRate()),
					Commits:          es.Commits,
					Aborts:           es.ConflictAborts,
					Validations:      es.Validations,
					ROSnapshot:       mode.label,
					SnapshotTxs:      es.SnapshotTxs,
					SnapshotRestarts: es.SnapshotRestarts,
				})
			}
		}
	}
	fmt.Println()
}

// traversalThroughput runs `threads` workers drawing uniformly from the
// named operations for the configured duration and returns the throughput
// plus the engine-stat delta of the window.
func traversalThroughput(cfg config, strategy string, disableSnap bool, threads int, opNames []string) (float64, stm.Stats) {
	ex, err := sync7.New(sync7.Config{
		Strategy:          strategy,
		NumAssmLevels:     cfg.params.NumAssmLevels,
		Engine:            cfg.engine,
		DisableROSnapshot: disableSnap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	s, err := core.Build(cfg.params, cfg.seed, ex.Engine().VarSpace())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	drawn := make([]*ops.Op, len(opNames))
	for i, name := range opNames {
		op, ok := ops.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown op %q\n", name)
			os.Exit(1)
		}
		drawn[i] = op
	}
	before := ex.Engine().Stats()
	var stop atomic.Bool
	var done atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rng.New(cfg.seed + uint64(t)*7919)
			for !stop.Load() {
				op := drawn[r.Uint64n(uint64(len(drawn)))]
				if _, err := ex.Execute(op, s, r); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					os.Exit(1)
				}
				done.Add(1)
			}
		}(t)
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(done.Load()) / dur.Seconds(), ex.Engine().Stats().Delta(before)
}

// scenarioSweep runs every built-in scenario (except the CI smoke one) on
// every strategy — lock baselines plus all registered STM engines — and
// prints one row per (strategy, phase). This is the Synchrobench-style
// probe: engine rankings that flip between phases (mix shifts, hotspot
// migration, arrival spikes) show up as crossed columns here.
func scenarioSweep(cfg config) {
	strategies := append([]string{"coarse", "medium"}, sync7.STMStrategies()...)
	threads := 4
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	fmt.Printf("=== Scenario sweep: built-in multi-phase workloads x every strategy ===\n")
	fmt.Printf("    (phase durations x%g via -seconds; default %d workers; open-loop rows\n", cfg.seconds, threads)
	fmt.Printf("     report p50/p99 response time with queueing included)\n")
	for _, name := range scenario.Names() {
		if name == "smoke" {
			continue // CI plumbing, not a measurement
		}
		sc, _ := scenario.Builtin(name)
		fmt.Printf("\n  scenario %q — %s\n", sc.Name, sc.Description)
		fmt.Printf("  %-8s %-14s %7s %-12s %10s %8s %9s %9s\n",
			"engine", "phase", "threads", "mode", "ops/s", "abort%", "p50[ms]", "p99[ms]")
		for _, strat := range strategies {
			rep, err := scenario.Run(sc, scenario.RunOptions{
				Params:    cfg.params,
				Strategy:  strat,
				Engine:    cfg.engine,
				Seed:      cfg.seed,
				Threads:   threads,
				TimeScale: cfg.seconds,
				OnEngine:  repointTelemetry,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			for _, pr := range rep.Phases {
				ph, res := pr.Phase, pr.Result
				mode := "closed"
				if ph.OpenLoop {
					mode = fmt.Sprintf("open@%.0f/s", ph.ArrivalRate)
				}
				pt := jsonPoint{
					Experiment: "scenarios",
					Variant:    strat,
					Scenario:   sc.Name,
					Phase:      ph.Name,
					Workload:   ph.Workload.String(),
					Threads:    ph.Threads,
					OpsPerSec:  res.Throughput(),
					AbortPct:   f64ptr(100 * res.EngineStats.AbortRate()),
					Commits:    res.EngineStats.Commits,
					Aborts:     res.EngineStats.ConflictAborts,
				}
				p50s, p99s := "-", "-"
				if ls, ok := res.ResponseLatency(); ok {
					pt.P50ResponseMs = f64ptr(ls.P50Ms)
					pt.P99ResponseMs = f64ptr(ls.P99Ms)
					p50s = fmt.Sprintf("%.3f", ls.P50Ms)
					p99s = fmt.Sprintf("%.3f", ls.P99Ms)
				}
				record(pt)
				fmt.Printf("  %-8s %-14s %7d %-12s %10.0f %8.1f %9s %9s\n",
					strat, ph.Name, ph.Threads, mode, res.Throughput(),
					100*res.EngineStats.AbortRate(), p50s, p99s)
			}
		}
	}
	fmt.Println()
}

// mvccSweep measures the multi-version read path: version-chain depth
// K in {1, 2, 4, 8} crossed with the write-traffic scenarios that expose
// PR 5's snapshot-restart weakness (read-burst-write-storm, spike) plus
// the steady control, for the two engines with a snapshot timestamp to
// resolve against (tl2, norec). Each point reports the snapshot restarts
// the phase paid, how many reads resolved from older versions, chain
// misses, and the retained version bytes — the space vs restarts curve.
// K=1 rows are the PR-5 baseline (the chain degenerates to the plain
// value cell bit-for-bit).
func mvccSweep(cfg config) {
	depths := []int{1, 2, 4, 8}
	scenarios := []string{"read-burst-write-storm", "spike", "steady"}
	engines := []string{"tl2", "norec"}
	threads := 4
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	fmt.Printf("=== MVCC sweep: version-chain depth K x write-traffic scenarios, tl2 + norec ===\n")
	fmt.Printf("    (phase durations x%g via -seconds; %d workers; K=1 = single-version baseline;\n", cfg.seconds, threads)
	fmt.Printf("     snapRst = snapshot restarts, verRead = reads resolved from older versions,\n")
	fmt.Printf("     verMiss = truncated-chain restarts, verBytes = retained version bytes)\n")
	for _, name := range scenarios {
		sc, ok := scenario.Builtin(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown scenario %q\n", name)
			os.Exit(1)
		}
		fmt.Printf("\n  scenario %q — %s\n", sc.Name, sc.Description)
		fmt.Printf("  %-8s %3s %-14s %10s %8s %9s %9s %9s %10s\n",
			"engine", "K", "phase", "ops/s", "abort%", "snapRst", "verRead", "verMiss", "verBytes")
		for _, strat := range engines {
			for _, k := range depths {
				rep, err := scenario.Run(sc, scenario.RunOptions{
					Params:    cfg.params,
					Strategy:  strat,
					Engine:    cfg.engineWith(fmt.Sprintf("versions=%d", k)),
					Seed:      cfg.seed,
					Threads:   threads,
					TimeScale: cfg.seconds,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					os.Exit(1)
				}
				for _, pr := range rep.Phases {
					ph, es := pr.Phase, pr.Result.EngineStats
					record(jsonPoint{
						Experiment:       "mvcc",
						Variant:          strat,
						Scenario:         sc.Name,
						Phase:            ph.Name,
						Workload:         ph.Workload.String(),
						Threads:          ph.Threads,
						OpsPerSec:        pr.Result.Throughput(),
						AbortPct:         f64ptr(100 * es.AbortRate()),
						Commits:          es.Commits,
						Aborts:           es.ConflictAborts,
						SnapshotTxs:      es.SnapshotTxs,
						SnapshotRestarts: es.SnapshotRestarts,
						Versions:         k,
						VersionReads:     es.VersionReads,
						VersionMisses:    es.VersionMisses,
						VersionBytes:     es.VersionBytes,
					})
					fmt.Printf("  %-8s %3d %-14s %10.0f %8.1f %9d %9d %9d %10d\n",
						strat, k, ph.Name, pr.Result.Throughput(), 100*es.AbortRate(),
						es.SnapshotRestarts, es.VersionReads, es.VersionMisses, es.VersionBytes)
				}
			}
		}
	}
	fmt.Println()
}

// chaosSweep exercises the PR-7 robustness subsystem on every STM engine:
//
//   - storm: the write-dominated mix under the chaos-storm fault plan
//     (seeded commit-path stalls plus a 1-in-24 forced abort) and a 25ms
//     transaction deadline, serial fallback off vs on — the realistic
//     "engine under fire" rows.
//   - determinism: two identical single-threaded fixed-op runs under the
//     same plan must fire bit-for-bit the same number of faults — the
//     reproducibility contract that makes chaos runs debuggable.
//   - acceptance: an always-abort plan (abort:1/1) with a 5ms deadline.
//     Fallback off surfaces every transaction as a deadline abort
//     (timeout aborts > 0); fallback on escalates each to irrevocable
//     serial mode and commits it (serial fallbacks > 0, timeout aborts
//     and failed ops = 0) — the liveness guarantee as a measurement.
//   - squall: an open-loop point at an arrival rate far beyond capacity
//     with a 2ms lateness budget and a 256-deep queue bound — the
//     shedding knobs keeping the served ops' response time bounded
//     instead of letting the backlog grow without limit.
func chaosSweep(cfg config) {
	const stormPlan = "seed=7,precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,abort:1/24"
	const stormDeadline = 25 * time.Millisecond
	threads := 4
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	// stormOpts is the storm's robustness configuration as an engine-spec
	// option list (faults= is last: it takes the rest of the string).
	stormOpts := func(fallback bool) stm.EngineOptions {
		return cfg.engineWith(fmt.Sprintf("deadline=%v,serial=%s,faults=%s", stormDeadline, onOff(fallback), stormPlan))
	}
	runChaos := func(o stmbench7.Options) *stmbench7.Result {
		o.Params = cfg.params
		o.Seed = cfg.seed
		o.DisableROSnapshot = cfg.disableSnap
		res, err := stmbench7.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return res
	}

	fmt.Println("=== Chaos sweep: fault injection, deadlines, serial fallback, shedding ===")
	fmt.Printf("    (storm: write-dominated mix under %q,\n", stormPlan)
	fmt.Printf("     tx deadline %v, %d threads, %gs per point)\n", stormDeadline, threads, cfg.seconds)
	fmt.Printf("%-8s %-12s %-9s %12s %8s %9s %9s %10s %9s\n",
		"engine", "shape", "fallback", "ops/s", "abort%", "faults", "timeouts", "fallbacks", "failed")
	for _, strat := range sync7.STMStrategies() {
		for _, fallback := range []bool{false, true} {
			res := runChaos(stmbench7.Options{
				Threads:        threads,
				Duration:       time.Duration(cfg.seconds * float64(time.Second)),
				Workload:       ops.WriteDominated,
				LongTraversals: false,
				StructureMods:  true,
				Strategy:       strat,
				Engine:         stormOpts(fallback),
			})
			es := res.EngineStats
			failed := res.TotalAttempted() - res.TotalSucceeded()
			fmt.Printf("%-8s %-12s %-9s %12.0f %8.1f %9d %9d %10d %9d\n",
				strat, "storm", onOff(fallback), res.Throughput(), 100*es.AbortRate(),
				es.InjectedFaults, es.TimeoutAborts, es.SerialFallbacks, failed)
			record(jsonPoint{
				Variant:         strat + "/storm",
				Workload:        ops.WriteDominated.String(),
				Threads:         threads,
				OpsPerSec:       res.Throughput(),
				AbortPct:        f64ptr(100 * es.AbortRate()),
				Commits:         es.Commits,
				Aborts:          es.ConflictAborts,
				FaultPlan:       stormPlan,
				TxDeadline:      stormDeadline.String(),
				SerialFallback:  onOff(fallback),
				InjectedFaults:  es.InjectedFaults,
				TimeoutAborts:   es.TimeoutAborts,
				SerialFallbacks: es.SerialFallbacks,
				FailedOps:       failed,
			})
		}
	}

	// Reproducibility: same seed, same fixed-op single-threaded run, twice —
	// the fault counters must match exactly.
	fmt.Println("\n  determinism (1 thread, 2000 fixed ops, identical seeded runs):")
	for _, strat := range sync7.STMStrategies() {
		var faults [2]uint64
		for i := range faults {
			res := runChaos(stmbench7.Options{
				Threads:        1,
				MaxOps:         2000,
				Workload:       ops.WriteDominated,
				LongTraversals: false,
				StructureMods:  true,
				Strategy:       strat,
				Engine:         cfg.engineWith("faults=" + stormPlan),
			})
			faults[i] = res.EngineStats.InjectedFaults
			record(jsonPoint{
				Variant:        fmt.Sprintf("%s/determinism-%c", strat, 'a'+i),
				Workload:       ops.WriteDominated.String(),
				Threads:        1,
				OpsPerSec:      res.Throughput(),
				FaultPlan:      stormPlan,
				InjectedFaults: res.EngineStats.InjectedFaults,
			})
		}
		verdict := "REPRODUCIBLE"
		if faults[0] != faults[1] {
			verdict = "MISMATCH"
		}
		fmt.Printf("  %-8s run A %5d faults, run B %5d faults — %s\n", strat, faults[0], faults[1], verdict)
	}

	// Acceptance: under an always-abort plan, fallback off surfaces every
	// transaction as a deadline abort; fallback on commits all of them
	// serially with zero surfaced aborts.
	fmt.Println("\n  acceptance (abort:1/1 plan, 5ms deadline, 2 threads, 100 ops each):")
	for _, strat := range sync7.STMStrategies() {
		for _, fallback := range []bool{false, true} {
			res := runChaos(stmbench7.Options{
				Threads:        2,
				MaxOps:         100,
				Workload:       ops.WriteDominated,
				LongTraversals: false,
				StructureMods:  true,
				Strategy:       strat,
				Engine:         cfg.engineWith("deadline=5ms,serial=" + onOff(fallback) + ",faults=seed=7,abort:1/1"),
			})
			es := res.EngineStats
			failed := res.TotalAttempted() - res.TotalSucceeded()
			fmt.Printf("  %-8s fallback %-3s timeouts %5d  fallbacks %5d  failed %5d\n",
				strat, onOff(fallback), es.TimeoutAborts, es.SerialFallbacks, failed)
			record(jsonPoint{
				Variant:         strat + "/acceptance",
				Workload:        ops.WriteDominated.String(),
				Threads:         2,
				OpsPerSec:       res.Throughput(),
				Commits:         es.Commits,
				FaultPlan:       "seed=7,abort:1/1",
				TxDeadline:      (5 * time.Millisecond).String(),
				SerialFallback:  onOff(fallback),
				InjectedFaults:  es.InjectedFaults,
				TimeoutAborts:   es.TimeoutAborts,
				SerialFallbacks: es.SerialFallbacks,
				FailedOps:       failed,
			})
		}
	}

	// Overload shedding: open-loop arrivals far beyond capacity; the
	// lateness budget and queue bound shed the excess instead of letting
	// response time diverge with the backlog.
	fmt.Println("\n  squall (open loop @ 200k/s arrivals, shed_after 2ms, queue_bound 256):")
	for _, strat := range sync7.STMStrategies() {
		res := runChaos(stmbench7.Options{
			Threads:           threads,
			Duration:          time.Duration(cfg.seconds * float64(time.Second) / 2),
			Workload:          ops.ReadWrite,
			LongTraversals:    false,
			StructureMods:     true,
			Strategy:          strat,
			Engine:            stormOpts(true),
			OpenLoop:          true,
			ArrivalRate:       200_000,
			ShedAfter:         2 * time.Millisecond,
			QueueBound:        256,
			CollectHistograms: true,
		})
		p99 := "-"
		var p99v *float64
		if ls, ok := res.ResponseLatency(); ok {
			p99 = fmt.Sprintf("%.3f", ls.P99Ms)
			p99v = f64ptr(ls.P99Ms)
		}
		fmt.Printf("  %-8s served %7d  shed %7d of %7d arrivals (%5.1f%%)  p99 %s ms\n",
			strat, res.TotalAttempted(), res.ShedOps, res.Arrivals, 100*res.ShedRate(), p99)
		record(jsonPoint{
			Variant:         strat + "/squall",
			Workload:        ops.ReadWrite.String(),
			Threads:         threads,
			OpsPerSec:       res.Throughput(),
			P99ResponseMs:   p99v,
			FaultPlan:       stormPlan,
			TxDeadline:      stormDeadline.String(),
			SerialFallback:  "on",
			InjectedFaults:  res.EngineStats.InjectedFaults,
			TimeoutAborts:   res.EngineStats.TimeoutAborts,
			SerialFallbacks: res.EngineStats.SerialFallbacks,
			Arrivals:        res.Arrivals,
			ShedOps:         res.ShedOps,
			ShedPct:         f64ptr(100 * res.ShedRate()),
		})
	}
	fmt.Println()
}

// commitSweep measures the PR 9 commit-pipelining layer. Two grids over
// the commit-bound write storm (write-dominated mix, long traversals off —
// the shape where NOrec serializes behind its sequence lock and TL2 pays
// one CAS per orec):
//
//   - storm: each engine with its pipelining knob off vs on — NOrec classic
//     vs combining-queue group commit, striped TL2 per-orec vs coalesced
//     group-word locking — crossed with threads. Knobs-off rows are the
//     regression guard; knobs-on rows carry the pipeline counters
//     (batches, batch sizes, coalesced acquisitions).
//   - hotspot: the same variants under an open-loop zipf hotspot
//     (theta 0.9), affinity routing off vs on, crossed with threads —
//     the thread/data-mapping half of the layer. Arrival rate scales with
//     the worker count so the offered load per worker is constant; rows
//     report response-time percentiles with queueing included.
//
// Group-commit batches form when a committer finds the sequence lock held,
// so their frequency rises with real commit overlap; single-core hosts
// (GOMAXPROCS=1) see few batches and the knob's gain there is bounded by
// the saved validation retries, not lock-handoff traffic.
func commitSweep(cfg config) {
	type variant struct {
		label    string
		strategy string
		engine   stm.EngineOptions
	}
	variants := []variant{
		{"norec/classic", "norec", stm.EngineOptions{}},
		{"norec/group", "norec", stm.EngineOptions{GroupCommit: true}},
		{"tl2/per-orec", "tl2", stm.EngineOptions{Granularity: stm.StripedGranularity}},
		{"tl2/coalesced", "tl2", stm.EngineOptions{Granularity: stm.StripedGranularity, LockCoalescing: true}},
	}
	runPoint := func(o stmbench7.Options) *stmbench7.Result {
		o.Params = cfg.params
		o.Seed = cfg.seed
		o.Workload = ops.WriteDominated
		o.LongTraversals = false
		o.StructureMods = true
		o.Duration = time.Duration(cfg.seconds * float64(time.Second))
		res, err := stmbench7.Run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return res
	}

	fmt.Println("=== Commit pipelining: group commit, lock coalescing, affinity routing ===")
	fmt.Printf("    (write-dominated mix, long traversals off, %gs per point; knobs-off\n", cfg.seconds)
	fmt.Println("     rows are the pre-pipelining baseline)")
	fmt.Printf("%-16s %8s %12s %8s %9s %9s %10s\n",
		"variant", "threads", "ops/s", "abort%", "batches", "batched", "coalesced")
	for _, v := range variants {
		for _, th := range cfg.threads {
			res := runPoint(stmbench7.Options{
				Threads:  th,
				Strategy: v.strategy,
				Engine:   v.engine,
			})
			es := res.EngineStats
			fmt.Printf("%-16s %8d %12.0f %8.1f %9d %9d %10d\n",
				v.label, th, res.Throughput(), 100*es.AbortRate(),
				es.GroupCommits, es.GroupCommitSize, es.CoalescedLocks)
			record(jsonPoint{
				Variant:         v.label + "/storm",
				Workload:        ops.WriteDominated.String(),
				Threads:         th,
				OpsPerSec:       res.Throughput(),
				AbortPct:        f64ptr(100 * es.AbortRate()),
				Commits:         es.Commits,
				Aborts:          es.ConflictAborts,
				Validations:     es.Validations,
				Granularity:     v.engine.Granularity.String(),
				GroupCommit:     onOff(v.engine.GroupCommit),
				Coalescing:      onOff(v.engine.LockCoalescing),
				GroupCommits:    es.GroupCommits,
				GroupCommitSize: es.GroupCommitSize,
				CoalescedLocks:  es.CoalescedLocks,
			})
		}
	}

	fmt.Println("\n  hotspot (open loop, zipf theta 0.9, rate 4000/s per worker):")
	fmt.Printf("  %-16s %-4s %8s %12s %8s %9s %9s\n",
		"variant", "aff", "threads", "ops/s", "abort%", "p50[ms]", "p99[ms]")
	for _, v := range variants {
		for _, aff := range []bool{false, true} {
			for _, th := range cfg.threads {
				res := runPoint(stmbench7.Options{
					Threads:           th,
					Strategy:          v.strategy,
					Engine:            v.engine,
					SkewTheta:         0.9,
					OpenLoop:          true,
					ArrivalRate:       4000 * float64(th),
					Affinity:          aff,
					CollectHistograms: true,
				})
				es := res.EngineStats
				pt := jsonPoint{
					Variant:         v.label + "/hotspot",
					Workload:        ops.WriteDominated.String(),
					Threads:         th,
					OpsPerSec:       res.Throughput(),
					AbortPct:        f64ptr(100 * es.AbortRate()),
					Commits:         es.Commits,
					Aborts:          es.ConflictAborts,
					Granularity:     v.engine.Granularity.String(),
					GroupCommit:     onOff(v.engine.GroupCommit),
					Coalescing:      onOff(v.engine.LockCoalescing),
					Affinity:        onOff(aff),
					GroupCommits:    es.GroupCommits,
					GroupCommitSize: es.GroupCommitSize,
					CoalescedLocks:  es.CoalescedLocks,
					Arrivals:        res.Arrivals,
				}
				p50s, p99s := "-", "-"
				if ls, ok := res.ResponseLatency(); ok {
					pt.P50ResponseMs = f64ptr(ls.P50Ms)
					pt.P99ResponseMs = f64ptr(ls.P99Ms)
					p50s = fmt.Sprintf("%.3f", ls.P50Ms)
					p99s = fmt.Sprintf("%.3f", ls.P99Ms)
				}
				record(pt)
				fmt.Printf("  %-16s %-4s %8d %12.0f %8.1f %9s %9s\n",
					v.label, onOff(aff), th, res.Throughput(), 100*es.AbortRate(), p50s, p99s)
			}
		}
	}
	fmt.Println()
}

// repointTelemetry aims the live /metrics registry at a freshly built
// engine (no-op without -listen). scenario.Run calls it via OnEngine.
func repointTelemetry(eng stm.Engine) {
	if telemetryReg != nil {
		telemetryReg.SetStats(eng.Stats)
	}
}

// telemetrySweep exercises the PR 8 observability layer per STM engine: a
// read/write mixed run with the time-series sampler attached (cadence
// chosen for about ten intervals per point) and a transaction flight
// recorder on the engine. Each point carries the per-interval
// throughput/abort/false-conflict curve in -json as series, plus the
// flight-recorder volume — proof the probe sites fire under a full mixed
// workload. The single-run CLIs expose the same machinery interactively
// via -sample, -trace and -listen.
func telemetrySweep(cfg config) {
	threads := 4
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	interval := time.Duration(cfg.seconds * float64(time.Second) / 10)
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	fmt.Println("=== Telemetry: sampled time series + flight recorder, every STM engine ===")
	fmt.Printf("    (read/write mix, %d threads, sampler cadence %v)\n\n", threads, interval)
	fmt.Printf("  %-8s %10s %8s %9s %12s %12s\n",
		"engine", "ops/s", "abort%", "samples", "trace evts", "overwrites")
	for _, strat := range stmbench7.STMStrategies() {
		rec := stmbench7.NewTraceRecorder(0)
		o := stmbench7.Options{
			Params:            cfg.params,
			Seed:              cfg.seed,
			Threads:           threads,
			Duration:          time.Duration(cfg.seconds * float64(time.Second)),
			Workload:          stmbench7.ReadWrite,
			Strategy:          strat,
			Engine:            cfg.engine,
			DisableROSnapshot: cfg.disableSnap,
			SampleInterval:    interval,
		}
		o.Engine.Trace = rec
		ex, s, err := stmbench7.Setup(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		repointTelemetry(ex.Engine())
		res, err := stmbench7.RunOn(o, ex, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		es := res.EngineStats
		fmt.Printf("  %-8s %10.0f %8.1f %9d %12d %12d\n",
			strat, res.Throughput(), 100*es.AbortRate(), len(res.Series), rec.Len(), rec.Dropped())
		record(jsonPoint{
			Variant:      strat,
			Workload:     o.Workload.String(),
			Threads:      threads,
			OpsPerSec:    res.Throughput(),
			AbortPct:     f64ptr(100 * es.AbortRate()),
			Commits:      es.Commits,
			Aborts:       es.ConflictAborts,
			SampleMs:     float64(interval) / float64(time.Millisecond),
			Series:       res.Series,
			TraceEvents:  rec.Len(),
			TraceDropped: rec.Dropped(),
		})
		if strat == "tl2" {
			fmt.Println()
			fmt.Printf("  tl2 time series (%v cadence)\n", interval)
			harness.WriteSeries(os.Stdout, "    ", res.Series)
			fmt.Println()
		}
	}
	fmt.Println()
}

// adaptiveSwitchBudget is the documented switch cost the self-tuning
// runtime is allowed to pay relative to the best pinned engine: quiesce
// drains, state transfer and the intervals spent on the wrong engine
// before the controller's rules fire. An adaptive row "recovers" a
// scenario when its aggregate throughput is at least the best pinned
// row's times (1 - budget).
const adaptiveSwitchBudget = 0.10

// adaptiveSweepReps is how many times each sweep row runs; the reported
// row is the best repetition (see runOne in adaptiveSweep for why max,
// not mean, on a timeshared single-CPU container).
const adaptiveSweepReps = 3

// adaptiveSweep measures the PR-10 self-tuning runtime on the two
// scenarios whose best configuration shifts mid-run:
//
//   - hotspot-migration: the zipf hotspot walks across the id space
//     phase by phase, so the conflict profile (and with it the best
//     engine/granularity choice) moves under the runtime's feet.
//   - chaos-storm: the chaos fault plan plus a 25ms deadline — the
//     deadline-pressure and conflict-storm rules' home turf.
//
// Each scenario first runs pinned on every STM engine (the baseline
// grid), then adaptively once per start engine. Adaptive rows record the
// reconfiguration count, quiesce stalls and the controller's decision
// timeline; the verdict line holds each adaptive row against the best
// pinned row minus the switch-cost budget.
func adaptiveSweep(cfg config) {
	scenarios := []string{"hotspot-migration", "chaos-storm"}
	threads := 4
	if n := len(cfg.threads); n > 0 {
		threads = cfg.threads[n-1]
	}
	fmt.Printf("=== Adaptive sweep: self-tuning runtime vs pinned engines ===\n")
	fmt.Printf("    (phase durations x%g via -seconds; %d workers; switch-cost budget %.0f%%;\n",
		cfg.seconds, threads, 100*adaptiveSwitchBudget)
	fmt.Printf("     ops/s is the scenario aggregate: total succeeded ops / scenario wall time)\n")

	runRep := func(sc *scenario.Scenario, strat string, adaptive bool) (float64, stm.Stats, []string) {
		rep, err := scenario.Run(sc, scenario.RunOptions{
			Params:    cfg.params,
			Strategy:  strat,
			Engine:    cfg.engine,
			Seed:      cfg.seed,
			Threads:   threads,
			TimeScale: cfg.seconds,
			Adaptive:  adaptive,
			OnEngine:  repointTelemetry,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		var total stm.Stats
		var succeeded int64
		var decisions []string
		for i := len(rep.Phases) - 1; i >= 0; i-- {
			total = total.Add(rep.Phases[i].Result.EngineStats)
			succeeded += rep.Phases[i].Result.TotalSucceeded()
		}
		for _, pr := range rep.Phases {
			for _, d := range pr.Result.Reconfigs {
				decisions = append(decisions, fmt.Sprintf("%s: %s", pr.Phase.Name, d))
			}
		}
		opsPerSec := 0.0
		if rep.Elapsed > 0 {
			opsPerSec = float64(succeeded) / rep.Elapsed.Seconds()
		}
		return opsPerSec, total, decisions
	}
	// Each row is the best of adaptiveSweepReps repetitions. Phases here
	// are a few hundred milliseconds on a timeshared single-CPU container,
	// so a single repetition carries ±15-20% interference noise — and the
	// noise is one-sided (interference only slows a run down), so the max
	// is the capacity estimate. Pinned and adaptive rows get identical
	// treatment, and a forced GC between repetitions keeps heap carried
	// over from earlier rows in the same process from biasing later ones.
	runOne := func(sc *scenario.Scenario, strat string, adaptive bool) (float64, stm.Stats, []string) {
		var bestOps float64
		var bestStats stm.Stats
		var bestDec []string
		for rep := 0; rep < adaptiveSweepReps; rep++ {
			runtime.GC()
			ops, es, dec := runRep(sc, strat, adaptive)
			if ops > bestOps {
				bestOps, bestStats, bestDec = ops, es, dec
			}
		}
		return bestOps, bestStats, bestDec
	}

	for _, name := range scenarios {
		sc, ok := scenario.Builtin(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown scenario %q\n", name)
			os.Exit(1)
		}
		fmt.Printf("\n  scenario %q — %s\n", sc.Name, sc.Description)
		fmt.Printf("  %-16s %-9s %10s %8s %9s %8s\n",
			"engine", "adaptive", "ops/s", "abort%", "reconfigs", "stalls")

		type row struct {
			strat     string
			adaptive  bool
			opsPerSec float64
			stats     stm.Stats
			decisions []string
		}
		var rows []row
		bestPinned := 0.0
		for _, strat := range sync7.STMStrategies() {
			ops, es, _ := runOne(sc, strat, false)
			rows = append(rows, row{strat, false, ops, es, nil})
			if ops > bestPinned {
				bestPinned = ops
			}
		}
		for _, strat := range sync7.STMStrategies() {
			ops, es, dec := runOne(sc, strat, true)
			rows = append(rows, row{strat, true, ops, es, dec})
		}
		for _, r := range rows {
			label := r.strat
			if r.adaptive {
				label = "adaptive(" + r.strat + ")"
			}
			fmt.Printf("  %-16s %-9s %10.0f %8.1f %9d %8d\n",
				label, onOff(r.adaptive), r.opsPerSec, 100*r.stats.AbortRate(),
				r.stats.Reconfigurations, r.stats.ReconfigStalls)
			pt := jsonPoint{
				Variant:          label,
				Scenario:         sc.Name,
				Threads:          threads,
				OpsPerSec:        r.opsPerSec,
				AbortPct:         f64ptr(100 * r.stats.AbortRate()),
				Commits:          r.stats.Commits,
				Aborts:           r.stats.ConflictAborts,
				TimeoutAborts:    r.stats.TimeoutAborts,
				Adaptive:         onOff(r.adaptive),
				Reconfigurations: r.stats.Reconfigurations,
				ReconfigStalls:   r.stats.ReconfigStalls,
				Decisions:        r.decisions,
			}
			if r.adaptive && bestPinned > 0 {
				pt.VsBestPinnedPct = f64ptr(100 * r.opsPerSec / bestPinned)
			}
			record(pt)
		}
		for _, r := range rows {
			if len(r.decisions) == 0 {
				continue
			}
			fmt.Printf("\n  decisions, adaptive(%s):\n", r.strat)
			for _, d := range r.decisions {
				fmt.Printf("    %s\n", d)
			}
		}
		floor := bestPinned * (1 - adaptiveSwitchBudget)
		fmt.Printf("\n  verdict: best pinned %.0f ops/s, floor %.0f ops/s (budget %.0f%%)\n",
			bestPinned, floor, 100*adaptiveSwitchBudget)
		for _, r := range rows {
			if !r.adaptive {
				continue
			}
			verdict := "RECOVERED"
			if r.opsPerSec < floor {
				verdict = "BELOW FLOOR"
			}
			fmt.Printf("    adaptive(%s) %.0f ops/s — %s\n", r.strat, r.opsPerSec, verdict)
		}
	}
	fmt.Println()
}
