package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// golden is what an experiment printed and recorded at the commit before
// the sweeps were cut (tiny structure, -threads 1,2): the variant labels in
// first-seen order, the JSON fields every point carries and the ones it
// may, the table's header lines and the shape of a data row.
type golden struct {
	variants []string
	always   []string
	may      []string
	lines    []string
	row      *regexp.Regexp
}

var throughputAlways = []string{"abort_pct", "experiment", "threads", "variant", "workload"}
var throughputMay = []string{"aborts", "commits", "ops_per_sec", "validations"}

func goldens() map[string]golden {
	// Figure 6 has a column per registered STM engine, so a new engine
	// joins it (and this expectation) with no edit here.
	fig6 := append([]string{"medium", "coarse"}, sync7.STMStrategies()...)
	fig6Header := fmt.Sprintf("%8s |", "threads")
	for _, s := range fig6 {
		fig6Header += fmt.Sprintf(" %10s", s)
	}
	return map[string]golden{
		"fig3": {
			variants: []string{"medium/T1", "coarse/T1", "medium/T2b", "coarse/T2b"},
			always:   []string{"experiment", "max_latency_ms", "threads", "variant", "workload"},
			lines: []string{
				"=== Figure 3: maximum latency of long traversals, all operations enabled ===",
				"    (paper: medium-grained latency above coarse-grained — long traversals",
				"     queue on 9+ locks instead of 1)",
				" threads |    R/T1 medium    R/T1 coarse |   W/T2b medium   W/T2b coarse",
			},
			row: regexp.MustCompile(`(?m)^ {7}2 \|( +\d+\.\d\dms){2} \|( +\d+\.\d\dms){2}$`),
		},
		"fig4": {
			variants: []string{"medium", "coarse"},
			always:   throughputAlways, may: throughputMay,
			lines: []string{
				"=== Figure 4: total throughput [ops/s], long traversals disabled ===",
				"    (paper: medium ~= coarse at 1 thread, pulls ahead with >= 2 threads,",
				"     advantage shrinks as the update share grows)",
				" threads |      R med   R coarse |     RW med  RW coarse |      W med   W coarse",
			},
			row: regexp.MustCompile(`(?m)^ {7}2( \|( +\d+){2}){3}$`),
		},
		"table3": {
			variants: []string{"coarse", "ostm"},
			always:   throughputAlways, may: throughputMay,
			lines: []string{
				"=== Table 3: total throughput [ops/s], coarse locking vs OSTM (ASTM variant), long traversals disabled ===",
				" threads |       R lock       R ostm |      RW lock      RW ostm |       W lock       W ostm",
			},
			row: regexp.MustCompile(`(?m)^ {7}2( \|( +\d+\.\d){2}){3}$`),
		},
		"fig6": {
			variants: fig6,
			always:   throughputAlways, may: throughputMay,
			lines: []string{
				"=== Figure 6: total throughput [ops/s], reduced operation set (all long operations disabled) ===",
				"    (paper: on this op set ASTM scales like medium locking for read-dominated",
				"     workloads and beats coarse locking given enough threads)",
				"  workload read-dominated", "  workload read-write", "  workload write-dominated",
				fig6Header,
			},
			row: regexp.MustCompile(fmt.Sprintf(`(?m)^ {7}2 \|( +\d+){%d}$`, len(fig6))),
		},
		"headline": {
			variants: []string{
				"coarse lock", "medium lock", "tl2", "norec", "ostm (ASTM variant)",
				"tl2, ro-snapshot", "ostm, ro-snapshot",
			},
			always: []string{"experiment", "ns_per_op", "threads", "variant"},
			may:    []string{"validations"},
			lines: []string{
				"=== §5 headline: single execution of long traversal T1, 1 thread ===",
				"    (paper at full scale: ~half an hour under ASTM vs ~1.5 s under locking;",
				"     the O(k^2) validation count above is the mechanism)",
			},
			row: regexp.MustCompile(`(?m)^  ostm \(ASTM variant\) {13} +\S+s   \( *\d+\.\dx coarse\)   reads +\d+  validations +\d+$`),
		},
		"ablations": {
			variants: []string{
				"ostm validation/incremental (faithful)", "ostm validation/commit-counter heuristic",
				"ostm reads/invisible (faithful)", "ostm reads/visible",
				"contention manager/polka (paper)", "contention manager/timid",
				"layout (tl2)/faithful", "layout (tl2)/grouped parts",
			},
			always: throughputAlways, may: throughputMay,
			lines: []string{
				"=== Ablations: reduced read-write mix, 2 threads, 0.02s per row ===",
				"group                variant                           ops/s    abort-%    validations",
			},
			row: regexp.MustCompile(`(?m)^contention manager   timid {21} +\d+ +\d+\.\d +\d+$`),
		},
	}
}

type report struct {
	Engine string
	Points []map[string]any
}

// runJSON drives run with -json into a temporary file and returns what it
// printed and the parsed report.
func runJSON(t *testing.T, args ...string) (string, report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "points.json")
	var out bytes.Buffer
	if err := run(append(args, "-json", path), &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("-json does not parse: %v\n%s", err, data)
	}
	return out.String(), rep
}

// TestEveryExperiment runs each table entry on its own and holds it to the
// golden: its points carry its id, the labels and JSON fields are the
// parent's, the table prints in the parent's layout, and the JSON header
// echoes -g.
func TestEveryExperiment(t *testing.T) {
	want := goldens()
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			g, ok := want[e.name]
			if !ok {
				t.Fatalf("experiment %q has no golden: the table is the paper's six experiments", e.name)
			}
			out, rep := runJSON(t, "-exp", e.name, "-size", "tiny", "-seconds", "0.02", "-threads", "1,2", "-g", "cm=timid,deadline=5s")
			if rep.Engine != "cm=timid,deadline=5s" {
				t.Errorf("JSON header engine = %q, want the -g string", rep.Engine)
			}
			if len(rep.Points) == 0 {
				t.Fatal("no points recorded")
			}
			var variants []string
			for _, p := range rep.Points {
				if p["experiment"] != e.name {
					t.Errorf("point recorded under experiment %v", p["experiment"])
				}
				if v, _ := p["variant"].(string); !slices.Contains(variants, v) {
					variants = append(variants, v)
				}
				for _, f := range g.always {
					if _, ok := p[f]; !ok {
						t.Errorf("point %v lacks field %q", p, f)
					}
				}
				for f := range p {
					if !slices.Contains(g.always, f) && !slices.Contains(g.may, f) {
						t.Errorf("point %v has field %q the parent's did not", p, f)
					}
				}
			}
			if !slices.Equal(variants, g.variants) {
				t.Errorf("variant labels\n got %q\nwant %q", variants, g.variants)
			}
			for _, line := range g.lines {
				if !strings.Contains(out, line+"\n") {
					t.Errorf("output lacks the line %q:\n%s", line, out)
				}
			}
			if !g.row.MatchString(out) {
				t.Errorf("no data row of the shape %v:\n%s", g.row, out)
			}
		})
	}
}

// TestAllVisitsTheTableInOrder: -exp all is the table, top to bottom.
func TestAllVisitsTheTableInOrder(t *testing.T) {
	_, rep := runJSON(t, "-exp", "all", "-size", "tiny", "-seconds", "0.02", "-threads", "1")
	var visited []string
	for _, p := range rep.Points {
		if id, _ := p["experiment"].(string); len(visited) == 0 || visited[len(visited)-1] != id {
			visited = append(visited, id)
		}
	}
	want := []string{"fig3", "fig4", "table3", "fig6", "headline", "ablations"}
	if !slices.Equal(visited, want) {
		t.Errorf("-exp all visited %q, want %q", visited, want)
	}
	if rep.Engine != "" {
		t.Errorf("JSON header engine = %q without -g", rep.Engine)
	}
}

// TestConfigurationErrorsComeBeforeAnyWork: a bad flag is reported, naming
// what the flag takes, before anything is built. There is no unbuildable
// structure to ask for through the flags, so each case asks for the most
// expensive run there is — every experiment at the paper's size, minutes
// of building — and must come back having printed nothing: the banner
// precedes the first build.
func TestConfigurationErrorsComeBeforeAnyWork(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"unknown-exp", []string{"-exp", "orecs"}, []string{`unknown experiment "orecs"`, "fig3, fig4, table3, fig6, headline, ablations or all"}},
		{"bad-g-key", []string{"-g", "striped=4"}, []string{"bad -g", `unknown key "striped"`, "want cm, commitcounter"}},
		{"bad-g-value", []string{"-g", "retries=-1"}, []string{"bad -g", "retries needs a count >= 0"}},
		{"bad-threads", []string{"-threads", "1,two"}, []string{`bad -threads "1,two"`, "integers >= 1"}},
		{"zero-threads", []string{"-threads", "0"}, []string{"bad -threads", "integers >= 1"}},
		{"bad-size", []string{"-size", "huge"}, []string{`unknown size "huge"`, "tiny, small or medium"}},
		{"zero-seconds", []string{"-seconds", "0"}, []string{"bad -seconds 0", "> 0"}},
		{"negative-seconds", []string{"-seconds", "-1", "-exp", "ablations"}, []string{"bad -seconds -1", "> 0"}},
		// The read-only dispatch mode is the nosnap spec key, not a flag.
		{"bad-ro-snapshot", []string{"-ro-snapshot", "off"}, []string{"flag provided but not defined: -ro-snapshot"}},
		{"bad-g-nosnap", []string{"-g", "nosnap=maybe"}, []string{"bad -g", "nosnap takes on or off"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-size", "medium", "-exp", "all"}, c.args...), &out)
			if err == nil {
				t.Fatal("accepted")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("err = %q, want it to contain %q", err, w)
				}
			}
			if out.Len() != 0 {
				t.Errorf("printed before rejecting the configuration:\n%s", out.String())
			}
		})
	}
}

// TestHelpSucceeds: -h prints the usage and is not an error, so the
// binary exits 0 without running an experiment.
func TestHelpSucceeds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
	if out.Len() != 0 {
		t.Errorf("run(-h) ran an experiment:\n%s", out.String())
	}
}

// TestDriveStopsOnFirstFailure: a worker whose step fails with anything but
// an operation's specified outcomes stops every worker and is the error of
// the data point — long before the point's duration is up — while the
// specified outcomes are results, not failures.
func TestDriveStopsOnFirstFailure(t *testing.T) {
	boom := errors.New("boom")
	d := &driver{duration: time.Minute}
	steps := make([]int, 3)
	start := time.Now()
	err := d.drive(len(steps), func(t int) uint64 { return uint64(t) }, func(worker int, _ *rng.Rand) error {
		steps[worker]++
		switch {
		case worker == 1 && steps[worker] == 3:
			return fmt.Errorf("T9: %w", boom)
		case worker == 0:
			return fmt.Errorf("OP1: %w", ops.ErrFailed)
		default:
			return fmt.Errorf("SM1: %w", stm.ErrAborted)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("drive = %v, want the failing step's error", err)
	}
	if el := time.Since(start); el > 30*time.Second {
		t.Errorf("drive took %v: the failure did not stop the row", el)
	}
	if steps[1] != 3 {
		t.Errorf("the failing worker ran %d steps, want it to stop at its third", steps[1])
	}

	d.duration = 10 * time.Millisecond
	err = d.drive(2, func(t int) uint64 { return uint64(t) }, func(int, *rng.Rand) error { return ops.ErrFailed })
	if err != nil {
		t.Errorf("drive over failing operations = %v, want nil: ErrFailed is an outcome", err)
	}
}
