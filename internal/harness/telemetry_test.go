package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sync7"
	"repro/stm"
)

// TestRunWithSampler pins the sampler and its harness wiring: a run with
// SampleInterval set yields a Series of strictly increasing timestamps
// whose per-interval op and commit deltas sum to exactly the run's totals
// (the live counter, the baseline subtraction and the Stop tail sample
// together drop nothing).
func TestRunWithSampler(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	o.MaxOps = 200
	o.SampleInterval = time.Millisecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("SampleInterval set but Result.Series is empty")
	}
	var ops int64
	var commits uint64
	lastT := 0.0
	for _, p := range res.Series {
		if p.T <= lastT {
			t.Errorf("sample timestamps not strictly increasing: %v after %v", p.T, lastT)
		}
		lastT = p.T
		if p.AbortPct < 0 || p.AbortPct > 100 {
			t.Errorf("AbortPct %v outside [0, 100]", p.AbortPct)
		}
		ops += p.Ops
		commits += p.Commits
	}
	if ops != res.TotalSucceeded() {
		t.Errorf("series op deltas sum to %d, run succeeded %d", ops, res.TotalSucceeded())
	}
	if commits != res.EngineStats.Commits {
		t.Errorf("series commit deltas sum to %d, run's engine delta is %d", commits, res.EngineStats.Commits)
	}

	// Sampling off stays off.
	o.SampleInterval = 0
	res, err = Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Errorf("SampleInterval 0 still produced %d series points", len(res.Series))
	}
}

// TestWriteJSON decodes the -json document of a sampled tiny run and finds
// in it what the text report prints for the same run: each operation's
// succeeded and failed counts, the totals, the stm line's commit count,
// and every stm.Stats counter under its field name.
func TestWriteJSON(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	o.SampleInterval = time.Millisecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Engine    string
		Succeeded int64
		Failed    int64
		Ops       []struct {
			Name              string
			Succeeded, Failed int64
		}
		Stats  map[string]uint64
		Series []map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-json document does not decode: %v\n%s", err, buf.String())
	}

	var sb strings.Builder
	WriteReport(&sb, res)
	report := sb.String()
	_, detail, _ := strings.Cut(report, "Detailed results\n")
	detail, _, _ = strings.Cut(detail, "\n\n")
	rows := strings.Split(detail, "\n")[1:] // below the column header
	if len(doc.Ops) != len(rows) {
		t.Fatalf("document has %d ops, report %d rows", len(doc.Ops), len(rows))
	}
	var succeeded, failed int64
	for i, row := range rows {
		f := strings.Fields(row)
		op := doc.Ops[i]
		if f[0] != op.Name || f[1] != strconv.FormatInt(op.Succeeded, 10) || f[3] != strconv.FormatInt(op.Failed, 10) {
			t.Errorf("report row %q, document op %+v", row, op)
		}
		succeeded += op.Succeeded
		failed += op.Failed
	}
	if doc.Succeeded != succeeded || doc.Failed != failed || succeeded != res.TotalSucceeded() {
		t.Errorf("document totals %d/%d, rows sum to %d/%d, run succeeded %d",
			doc.Succeeded, doc.Failed, succeeded, failed, res.TotalSucceeded())
	}
	if want := fmt.Sprintf("stm: commits %d,", doc.Stats["Commits"]); doc.Stats["Commits"] == 0 || !strings.Contains(report, want) {
		t.Errorf("report lacks %q", want)
	}
	st := reflect.ValueOf(res.EngineStats)
	for i := 0; i < st.NumField(); i++ {
		name := st.Type().Field(i).Name
		got, ok := doc.Stats[name]
		if !ok || got != st.Field(i).Uint() {
			t.Errorf("stats.%s = %d (present %v), run counted %d", name, got, ok, st.Field(i).Uint())
		}
	}
	if doc.Engine != "tl2" || len(doc.Series) != len(res.Series) || len(doc.Series) == 0 {
		t.Errorf("engine %q, %d series points; want tl2 and the run's %d", doc.Engine, len(doc.Series), len(res.Series))
	}
}

func TestNegativeSampleIntervalRejected(t *testing.T) {
	o := baseOpts()
	o.SampleInterval = -time.Millisecond
	if _, err := Run(o); err == nil {
		t.Error("negative SampleInterval accepted")
	}
}

// TestRunWithTraceRecorder checks the -trace plumbing end to end for every
// STM strategy: a recorder handed to the harness reaches the engine's
// probe sites and captures the run's transactions. (ostm takes a dedicated
// sync7 factory, so the loop guards all three plumbing paths.)
func TestRunWithTraceRecorder(t *testing.T) {
	for _, strat := range sync7.STMStrategies() {
		t.Run(strat, func(t *testing.T) {
			// Default capacity: ostm notes a validation event per open
			// var, so a small ring would overwrite early commits and
			// break the accounting check below.
			rec := stm.NewTraceRecorder(0)
			o := baseOpts()
			o.Strategy = strat
			o.Engine.Trace = rec
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			events := rec.Events()
			if len(events) == 0 {
				t.Fatal("trace recorder captured nothing")
			}
			var begins, commits uint64
			for _, ev := range events {
				switch ev.Kind {
				case stm.TraceBegin:
					begins++
				case stm.TraceCommit:
					commits++
				}
			}
			if begins == 0 || commits == 0 {
				t.Errorf("trace has %d begins, %d commits; want both > 0", begins, commits)
			}
			// The recorder also observes transactions outside the measured
			// window (the structure build, the post-run invariant check), so
			// it can only have MORE commits than the run's engine-stat delta —
			// unless the ring wrapped and overwrote early events.
			if rec.Dropped() == 0 && commits < res.EngineStats.Commits {
				t.Errorf("trace has %d commits, engine delta counted %d", commits, res.EngineStats.Commits)
			}
		})
	}
}

// TestReportHeaderEchoesEnvironment pins satellite coverage for the report
// header: every run names its seed, GOMAXPROCS and — as one engine spec —
// the configuration the executor was built with.
func TestReportHeaderEchoesEnvironment(t *testing.T) {
	o := baseOpts()
	o.Strategy = "tl2"
	o.Engine.MaxRetries = 8
	o.Engine.TxDeadline = 25 * time.Millisecond
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, res)
	out := sb.String()
	for _, want := range []string{
		"seed:",
		"gomaxprocs:",
		"engine:               tl2:deadline=25ms,retries=8\n",
		"abort causes:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
}

// TestReportEngineLineRoundTrips: the report's engine: line is a -g
// argument that builds the configuration the run used — nosnap included
// — and the run honoured the key.
func TestReportEngineLineRoundTrips(t *testing.T) {
	spec, err := stm.ParseEngineSpec("tl2:nosnap")
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.Strategy, o.Engine = spec.Name, spec.Options
	ex, s, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(o, ex, s)
	if err != nil {
		t.Fatal(err)
	}
	if es := res.EngineStats; es.SnapshotTxs != 0 || es.Commits == 0 {
		t.Errorf("SnapshotTxs %d, Commits %d under nosnap; want 0 and > 0", es.SnapshotTxs, es.Commits)
	}
	var sb strings.Builder
	WriteReport(&sb, res)
	out := sb.String()
	var line string
	for _, l := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(l), "engine:"); ok {
			line = strings.TrimSpace(v)
		}
	}
	back, err := stm.ParseEngineSpec(line)
	if err != nil {
		t.Fatalf("engine line %q does not parse: %v", line, err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("engine line %q parses to %s, want %s", line, back, spec)
	}
}
