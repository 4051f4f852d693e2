package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json this program reads back.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the working directory or, when the
// program runs from its own directory, from the one above.
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, firstErr
}

func (m *manifest) bounds() map[string]float64 {
	b := map[string]float64{}
	for _, e := range m.EndToEnd {
		b[e.Name] = e.Bound
	}
	return b
}

// values maps workload → metric → one value per run.
type values map[string]map[string][]float64

func (v values) add(workload string, metrics map[string]lineMetric) {
	if v[workload] == nil {
		v[workload] = map[string][]float64{}
	}
	for name, m := range metrics {
		v[workload][name] = append(v[workload][name], m.Value)
	}
}

// runSet is one set of runs of the whole suite.
type runSet struct {
	EndToEnd values `json:"end_to_end"`
	PerLayer values `json:"per_layer"`
}

// repeatFile is what -repeat writes and -diff reads.
type repeatFile struct {
	Go         string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Runs       int      `json:"runs_per_workload_and_set"`
	Sets       []runSet `json:"sets"`
}

// child runs this program once, as the driver would, and returns its
// result line without the metrics it reported as absent.
func child(self, workload string, seed uint64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: result line: %w", workload, seed, trace, err)
	}
	for _, l := range lines {
		if names, ok := strings.CutPrefix(l, absentPrefix); ok {
			for _, name := range strings.Fields(names) {
				delete(res.Metrics, name)
			}
		}
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d trace %d: correct=%v failed=%d", workload, seed, trace, res.Correct, res.Failed)
	}
	return &res, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(a, b float64, higherBetter bool) float64 {
	w := (b - a) / math.Abs(a)
	if higherBetter {
		return -w
	}
	return w
}

// tracedRuns is the number of traced runs per workload in a set of -repeat:
// enough for -diff to show a per-layer column with a median.
const tracedRuns = 2

// runRepeat runs every workload n times untraced and tracedRuns times traced,
// twice over with fresh seeds, and reports each end-to-end metric's median,
// quartiles and spread per set against its bound. It fails when a spread
// exceeds its bound or the two sets' medians differ, in either direction, by
// more than the bound — the two checks a benchmark must pass to be usable.
func runRepeat(n int, seed uint64, seconds float64, out string) int {
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	file := repeatFile{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Runs: n}
	for set := 0; set < 2; set++ {
		rs := runSet{EndToEnd: values{}, PerLayer: values{}}
		for _, wl := range workloads {
			for i := 0; i < n+tracedRuns; i++ {
				trace, into := 0, rs.EndToEnd
				if i >= n {
					trace, into = 1, rs.PerLayer
				}
				res, err := child(self, wl.name, seed+uint64(set*(n+tracedRuns)+i), seconds, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				into.add(wl.name, res.Metrics)
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", set+1, wl.name)
		}
		file.Sets = append(file.Sets, rs)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	bounds := man.bounds()
	bad := 0
	fmt.Printf("%-16s %-14s %3s %12s %12s %12s %7s %6s  %s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			var medians []float64
			for set, rs := range file.Sets {
				v := rs.EndToEnd[wl.name][d.name]
				q1, q2, q3 := quartiles(v)
				medians = append(medians, q2)
				sp, note := spread(v), ""
				if sp > bounds[d.name] {
					note = "SPREAD OVER BOUND"
					bad++
				} else if sp > bounds[d.name]/3 {
					note = "over a third of the bound"
				}
				fmt.Printf("%-16s %-14s %3d %12.4f %12.4f %12.4f %7.3f %6.2f  %s\n",
					wl.name, d.name, set+1, q1, q2, q3, sp, bounds[d.name], note)
			}
			// Whichever set is taken for the parent, the other may not be
			// worse than it by more than the bound.
			w := max(worseBy(medians[0], medians[1], d.higher), worseBy(medians[1], medians[0], d.higher))
			if w > bounds[d.name] {
				fmt.Printf("%-16s %-14s SETS DISAGREE: one median is worse than the other by %.3f\n", wl.name, d.name, w)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d checks failed\n", bad)
		return 1
	}
	return 0
}

func orAbsent(v []float64) string {
	if len(v) == 0 {
		return "absent"
	}
	return strconv.FormatFloat(median(v), 'f', 4, 64)
}

// runDiff compares two -repeat result files: per workload and end-to-end
// metric a verdict, and the per-layer medians beside it.
func runDiff(pathA, pathB string) int {
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var files [2]repeatFile
	for i, path := range []string{pathA, pathB} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	// pooled gathers one metric's values over every set of a file.
	pooled := func(f *repeatFile, layer func(runSet) values, wl, name string) []float64 {
		var v []float64
		for _, rs := range f.Sets {
			v = append(v, layer(rs)[wl][name]...)
		}
		return v
	}
	e2e := func(rs runSet) values { return rs.EndToEnd }
	layer := func(rs runSet) values { return rs.PerLayer }
	bounds := man.bounds()
	worse := 0
	for _, wl := range workloads {
		fmt.Printf("%s\n", wl.name)
		fmt.Printf("  %-34s %14s %14s %8s %7s  %s\n", "end-to-end", "a", "b", "change", "spread", "verdict")
		for _, d := range endToEnd {
			a, b := pooled(&files[0], e2e, wl.name, d.name), pooled(&files[1], e2e, wl.name, d.name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			w := worseBy(ma, mb, d.higher)
			sp := math.Max(spread(a), spread(b))
			verdict := "within-bound"
			switch {
			case len(a) > 1 && len(b) > 1 && sp > bounds[d.name]:
				verdict = "unresolved"
			case w > bounds[d.name]:
				verdict = "worse"
				worse++
			case -w > spread(a):
				verdict = "better"
			}
			fmt.Printf("  %-34s %14.4f %14.4f %+7.1f%% %7.3f  %s\n", d.name, ma, mb, 100*(mb-ma)/math.Abs(ma), sp, verdict)
		}
		fmt.Printf("  %-34s %14s %14s %8s\n", "per-layer", "a", "b", "change")
		for _, d := range perLayer {
			a, b := pooled(&files[0], layer, wl.name, d.name), pooled(&files[1], layer, wl.name, d.name)
			// A metric that does not apply to the workload is in neither
			// file; one that lost its denominator in some runs is short.
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-34s %14s %14s\n", d.name, orAbsent(a), orAbsent(b))
				continue
			}
			ma, mb := median(a), median(b)
			fmt.Printf("  %-34s %14.4f %14.4f %+7.1f%%\n", d.name, ma, mb, 100*(mb-ma)/math.Abs(ma))
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
