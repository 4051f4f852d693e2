// Command stmbench7 is the benchmark's command-line interface, mirroring
// Appendix A.1 of the paper:
//
//	stmbench7 -t 8 -l 10 -w rw -g medium --no-traversals --ttc-histograms
//
// Flags:
//
//	-t N               number of threads (default 1)
//	-l SECONDS         benchmark length in seconds (default 10)
//	-w r|rw|w          workload type (default r, read-dominated)
//	-g SPEC            synchronization: coarse, medium, ostm, tl2, norec (default
//	                   coarse), optionally with engine options after a colon —
//	                   an engine spec such as tl2:deadline=25ms or
//	                   norec:deadline=25ms,retries=8,serial. Keys:
//	                   cm=NAME, ctv, commitcounter, visible, deadline=D,
//	                   retries=N, serial, nosnap, faults=PLAN
//	                   (last); see the README's "Engine spec" section.
//	                   nosnap runs read-only operations on the validating
//	                   path instead of the snapshot fast path, e.g.
//	                   tl2:nosnap
//	--no-traversals    disable long traversals
//	--no-sms           disable structure modification operations
//	--ttc-histograms   print Appendix A's TTC (latency) histograms in ms;
//	                   every run records them, this only prints them
//
// Extensions over the paper's CLI:
//
//	-size tiny|small|medium   structure size (default small; medium is the paper's)
//	-seed N                   build/workload seed (default 42)
//	-reduced                  use the §5 reduced operation set (Figure 6)
//	-arrival-rate R           drive the run open-loop at R Poisson arrivals/s
//	                          (total) instead of the closed loop; response
//	                          time is measured from the scheduled arrival,
//	                          queueing included
//	-json FILE                write the report's machine-readable copy to
//	                          FILE after the run: configuration, totals,
//	                          per-operation and per-category counts and
//	                          p50/p99 TTC in ns, latency summary, live heap
//	                          bytes after the run, every engine counter and
//	                          the -sample series (one entry per phase in
//	                          scenario mode)
//	-trace N                  attach a transaction flight recorder retaining
//	                          about N attempt-lifecycle events (begin,
//	                          validate, lock, commit, abort-with-cause,
//	                          snapshot restart, serial escalation)
//	-trace-out FILE           write the recorder's Chrome Trace Event JSON
//	                          to FILE after the run (load in chrome://tracing
//	                          or Perfetto)
//	-sample D                 sample engine counters every D (Go duration),
//	                          appending a per-interval time series to the
//	                          report (throughput, abort rate, restarts)
//	-check                    verify all structural invariants after the run
//	-group-atomic             group atomic-part state per composite part (§5 optimization)
//
// Scenario mode (multi-phase workloads; see the README's Scenarios
// chapter):
//
//	-scenario NAME|FILE   run a built-in scenario or a JSON scenario file
//	                      instead of a single static mix; -t becomes the
//	                      default thread count for phases that don't set
//	                      their own, and -l/-w/-reduced/-arrival-rate/--no-*
//	                      are ignored
//	                      (the -g options become run defaults a scenario's
//	                      "engine" keys may override; overload-shedding
//	                      knobs are per-phase in the scenario file)
//	-scenario-scale F     multiply every phase duration by F (default 1)
//	-list-scenarios       print the built-in scenario library and exit
//
// The report (Appendix A.1's output format, or the scenario per-phase
// report) goes to stdout; diagnostics go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	stmbench7 "repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stmbench7:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stmbench7", flag.ContinueOnError)
	threads := fs.Int("t", 1, "number of threads")
	length := fs.Float64("l", 10, "benchmark length in seconds")
	workload := fs.String("w", "r", "workload type: r, rw or w")
	specFlag := fs.String("g", "coarse", "synchronization strategy ("+strings.Join(stmbench7.Strategies(), ", ")+"), optionally with engine options: an engine spec such as norec:deadline=25ms,serial")
	noTraversals := fs.Bool("no-traversals", false, "disable long traversals")
	noSMs := fs.Bool("no-sms", false, "disable structure modification operations")
	histograms := fs.Bool("ttc-histograms", false, "print the TTC histograms in the report")
	size := fs.String("size", "small", "structure size: tiny, small or medium (paper scale)")
	seed := fs.Uint64("seed", 42, "benchmark seed")
	reduced := fs.Bool("reduced", false, "use the reduced operation set of §5 (Figure 6)")
	arrivalRate := fs.Float64("arrival-rate", 0, "open-loop Poisson arrival rate in ops/s, total (0 = closed loop)")
	check := fs.Bool("check", false, "check structural invariants after the run")
	groupAtomic := fs.Bool("group-atomic", false, "group atomic-part state per composite (§5 optimization)")
	scenarioArg := fs.String("scenario", "", "run a multi-phase scenario: builtin name or JSON file (see -list-scenarios)")
	scenarioScale := fs.Float64("scenario-scale", 1, "multiply scenario phase durations")
	listScenarios := fs.Bool("list-scenarios", false, "list builtin scenarios and exit")
	jsonOut := fs.String("json", "", "write the report as JSON to this file after the run")
	traceEvents := fs.Int("trace", 0, "attach a transaction flight recorder retaining about N events (0 = off; stm engines only)")
	traceOut := fs.String("trace-out", "", "write the flight recorder's Chrome Trace Event JSON to this file after the run (requires -trace)")
	sample := fs.Duration("sample", 0, "telemetry sampling cadence, e.g. 1s; appends a per-interval time series to the report (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; asking for it is not a failure
		}
		return err
	}

	if *listScenarios {
		for _, name := range stmbench7.Scenarios() {
			sc, _ := stmbench7.LookupScenario(name)
			fmt.Printf("  %-24s %d phases  %s\n", name, len(sc.Phases), sc.Description)
		}
		return nil
	}

	// Configuration errors come before any work: the spec is parsed and its
	// strategy name resolved here, not after the structure is built.
	spec, err := stmbench7.ParseEngineSpec(*specFlag)
	if err != nil {
		return fmt.Errorf("bad -g: %w", err)
	}
	if !slices.Contains(stmbench7.Strategies(), spec.Name) {
		return fmt.Errorf("bad -g: unknown strategy %q (want %s)", spec.Name, strings.Join(stmbench7.Strategies(), ", "))
	}
	if *arrivalRate < 0 {
		return fmt.Errorf("bad -arrival-rate %v (must be >= 0)", *arrivalRate)
	}
	w, err := stmbench7.ParseWorkload(*workload)
	if err != nil {
		return err
	}

	params, ok := stmbench7.NamedParams(*size)
	if !ok {
		return fmt.Errorf("unknown size %q (want tiny, small or medium)", *size)
	}
	params.GroupAtomicParts = *groupAtomic

	if *traceEvents < 0 {
		return fmt.Errorf("bad -trace %d (must be >= 0)", *traceEvents)
	}
	if *sample < 0 {
		return fmt.Errorf("bad -sample %v (must be >= 0)", *sample)
	}
	var rec *stmbench7.TraceRecorder
	if *traceEvents > 0 {
		rec = stmbench7.NewTraceRecorder(*traceEvents)
		spec.Options.Trace = rec
	}
	if *traceOut != "" && rec == nil {
		return fmt.Errorf("-trace-out requires -trace N")
	}
	// One option set for both modes; a scenario run takes Threads and the
	// run-level fields from it and ignores the per-phase ones.
	opts := stmbench7.Options{
		Params:          params,
		Seed:            *seed,
		Threads:         *threads,
		Duration:        time.Duration(*length * float64(time.Second)),
		Workload:        w,
		LongTraversals:  !*noTraversals,
		StructureMods:   !*noSMs,
		Reduced:         *reduced,
		Strategy:        spec.Name,
		Engine:          spec.Options,
		OpenLoop:        *arrivalRate > 0,
		ArrivalRate:     *arrivalRate,
		SampleInterval:  *sample,
		CheckInvariants: *check,
	}

	// Every option is checked before a build is announced, in both modes.
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := spec.Options.Validate(); err != nil {
		return fmt.Errorf("bad -g: %w", err)
	}

	// writeOutputs writes the -json document and the -trace-out dump, each
	// when its flag names a file.
	writeOutputs := func(writeJSON func(io.Writer) error) error {
		if *jsonOut != "" {
			if err := writeFile(*jsonOut, writeJSON); err != nil {
				return err
			}
		}
		if *traceOut == "" {
			return nil
		}
		if err := writeFile(*traceOut, rec.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", rec.Len(), *traceOut)
		return nil
	}

	if *scenarioArg != "" {
		sc, err := stmbench7.LookupScenario(*scenarioArg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "building %s structure (seed %d) for scenario %q...\n", *size, *seed, sc.Name)
		t0 := time.Now()
		rep, err := stmbench7.RunScenario(sc, stmbench7.ScenarioRunOptions{Options: opts, TimeScale: *scenarioScale})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(t0).Round(time.Millisecond))
		stmbench7.WriteScenarioReport(os.Stdout, rep)
		return writeOutputs(func(w io.Writer) error { return stmbench7.WriteScenarioJSON(w, rep) })
	}

	fmt.Fprintf(os.Stderr, "building %s structure (seed %d)...\n", *size, *seed)
	t0 := time.Now()
	res, err := stmbench7.Run(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(t0).Round(time.Millisecond))
	stmbench7.WriteReport(os.Stdout, res, *histograms)
	return writeOutputs(func(w io.Writer) error { return stmbench7.WriteJSON(w, res) })
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
