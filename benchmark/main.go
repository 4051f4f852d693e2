// Command benchmark is the repo's one fixed performance suite: six seeded
// STMBench7 workloads, seven end-to-end metrics and an outside-in cost
// ladder, all measured by timing calls into the public functions of each
// layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 42, "seed of every input: structures, operation order, random ids")
	seconds := fs.Float64("seconds", 18, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced cost ladder")
	out := fs.String("out", "", "also write the full report (environment, per-slice rows) to this file")
	spansOut := fs.String("spans-out", "", "with -trace 1: write the spans of the last 2-worker traced slice to this file")
	repeat := fs.Int("repeat", 0, "run every workload N times untraced and twice traced, all that twice over, and report medians, quartiles and spreads")
	diff := fs.Bool("diff", false, "compare two -repeat result files: -diff a.json b.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	switch {
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -diff wants two result files")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1))
	case *repeat > 0:
		return runRepeat(*repeat, *seed, *seconds, *out)
	}

	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	c := &config{
		wl: wl, m: newMix(wl.opts), seed: *seed, seconds: *seconds,
		params: core.Small(), scale: 1, threads: workers(), spansOut: *spansOut,
	}
	var r *report
	if *trace == 0 {
		r, err = c.runEndToEnd()
	} else {
		r, err = c.runTraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, g := range r.Gate {
		fmt.Fprintln(os.Stderr, "benchmark: correctness gate:", g)
	}
	if *out != "" {
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Printf("# %s seed=%d trace=%d %s gomaxprocs=%d num_cpu=%d workers=%d loadavg=%q slices=%d host_factor=%.3f\n",
		r.Workload, r.Seed, r.Trace, r.Env.Go, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.Workers, r.Env.LoadAvg, len(r.HostFactors), median(r.HostFactors))
	if names := r.absent(); len(names) > 0 {
		fmt.Println(absentPrefix + strings.Join(names, " "))
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// result is the contract's result line: exactly these four keys, and every
// metric exactly a value and a unit. An absent metric reads 0 there; the
// line before it, which starts with absentPrefix, names those.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const absentPrefix = "# absent: "

func (r *report) result() result {
	ms := make(map[string]lineMetric, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = lineMetric{m.Value, m.Unit}
	}
	return result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: ms}
}

// absent lists the metrics that do not apply to the workload, sorted.
func (r *report) absent() []string {
	var names []string
	for name, m := range r.Metrics {
		if m.Absent {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
