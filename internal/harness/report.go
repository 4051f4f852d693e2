package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sync7"
	"repro/stm"
)

// categories lists §3's operation categories in the report's order.
var categories = []ops.Category{ops.LongTraversal, ops.ShortTraversal, ops.ShortOperation, ops.StructureModification}

// sortedOps returns the per-op results in canonical (registry) order.
func sortedOps(r *Result) []*OpResult {
	var out []*OpResult
	for _, op := range ops.All() {
		if res, ok := r.PerOp[op.Name]; ok {
			out = append(out, res)
		}
	}
	return out
}

// WriteReport prints the Appendix-A report: benchmark parameters, the TTC
// histograms when histograms is set (--ttc-histograms), detailed
// per-operation results with TTC percentiles, sample errors and the
// summary (per-category counts, totals, the two throughput numbers and the
// elapsed time).
func WriteReport(w io.Writer, r *Result, histograms bool) {
	o := r.Options

	fmt.Fprintln(w, "Benchmark parameters")
	fmt.Fprintf(w, "  threads:              %d\n", o.Threads)
	if o.MaxOps > 0 {
		fmt.Fprintf(w, "  length:               %d ops/thread\n", o.MaxOps)
	} else {
		fmt.Fprintf(w, "  length:               %v\n", o.Duration)
	}
	fmt.Fprintf(w, "  workload:             %v\n", o.Workload)
	fmt.Fprintf(w, "  synchronization:      %s\n", o.Strategy)
	fmt.Fprintf(w, "  long traversals:      %v\n", o.LongTraversals)
	fmt.Fprintf(w, "  structure mods:       %v\n", o.StructureMods)
	fmt.Fprintf(w, "  reduced op set:       %v\n", o.Reduced)
	fmt.Fprintf(w, "  structure:            %d composite parts x %d atomic parts, %d assembly levels\n",
		o.Params.NumCompParts, o.Params.NumAtomicPerComp, o.Params.NumAssmLevels)
	fmt.Fprintf(w, "  seed:                 %d\n", o.Seed)
	fmt.Fprintf(w, "  gomaxprocs:           %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  engine:               %s\n", stm.EngineSpec{Name: o.Strategy, Options: o.Engine})
	fmt.Fprintln(w)

	if histograms {
		fmt.Fprintln(w, "TTC histograms")
		for _, op := range sortedOps(r) {
			if op.Succeeded > 0 {
				fmt.Fprintf(w, "TTC histogram for %s:", op.Name)
				writeMsHistogram(w, &op.TTC)
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Detailed results")
	fmt.Fprintf(w, "  %-6s %12s %14s %10s %10s %10s %10s\n",
		"op", "succeeded", "max ttc [ms]", "failed", "p50 [ms]", "p90 [ms]", "p99 [ms]")
	for _, op := range sortedOps(r) {
		s, _ := op.TTC.Summary()
		fmt.Fprintf(w, "  %-6s %12d %14.3f %10d %10.3f %10.3f %10.3f\n",
			op.Name, op.Succeeded, ms(op.MaxTTC), op.Failed, ms(s.P50), ms(s.P90), ms(s.P99))
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Sample errors")
	fmt.Fprintf(w, "  %-6s %8s %8s %8s %8s %8s\n", "op", "C_T", "R_T", "E_T", "A_T", "F_T")
	perOp, totalE, totalF := r.SampleErrors()
	for _, se := range perOp {
		fmt.Fprintf(w, "  %-6s %8.4f %8.4f %8.4f %8.4f %8.4f\n", se.Name, se.CT, se.RT, se.ET, se.AT, se.FT)
	}
	fmt.Fprintf(w, "  total sample errors: E = %.4f, F = %.4f\n", totalE, totalF)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Summary results")
	cats := r.ByCategory()
	for _, cat := range categories {
		c, ok := cats[cat]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-24s succeeded %10d  max ttc %10.3f ms  failed %8d  started %10d\n",
			cat.String()+":", c.Succeeded, ms(c.MaxTTC), c.Failed, c.Succeeded+c.Failed)
	}
	fmt.Fprintf(w, "  total throughput:     %10.1f ops/s (successful), %10.1f ops/s (attempted)\n",
		r.Throughput(), r.AttemptedThroughput())
	fmt.Fprintf(w, "  elapsed time:         %10.3f s\n", r.Elapsed.Seconds())
	if o.OpenLoop {
		fmt.Fprintf(w, "  open loop:            %d arrivals offered @ %.0f ops/s\n", r.Arrivals, o.ArrivalRate)
		if rs, ok := r.Response.Summary(); ok {
			fmt.Fprintf(w, "  response time:        p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %.3f ms (queueing included)\n",
				ms(rs.P50), ms(rs.P90), ms(rs.P99), ms(rs.Max))
		}
		if o.ShedAfter > 0 || o.QueueBound > 0 {
			fmt.Fprintf(w, "  overload shedding:    %d ops shed (%.1f%% of arrivals)", r.ShedOps, 100*r.ShedRate())
			if o.ShedAfter > 0 {
				fmt.Fprintf(w, ", lateness budget %v", o.ShedAfter)
			}
			if o.QueueBound > 0 {
				fmt.Fprintf(w, ", queue bound %d", o.QueueBound)
			}
			fmt.Fprintln(w)
		}
	}

	es := r.EngineStats
	if es.Attempts() > 0 && slices.Contains(sync7.STMStrategies(), o.Strategy) {
		// The canonical stat block is shared with every other report
		// surface; only option echoes that need run context stay local.
		for _, line := range es.Lines() {
			fmt.Fprintf(w, "  %s\n", line)
		}
		if o.Engine.SerialFallback {
			fmt.Fprintf(w, "  serial fallback: on, %d escalations (%.2f%% of commits)\n",
				es.SerialFallbacks, 100*safeRate(es.SerialFallbacks, es.Commits))
		}
		if o.Engine.Faults != nil {
			fmt.Fprintf(w, "  fault injection: %d faults fired\n", es.InjectedFaults)
		}
	}

	if len(r.Series) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "Telemetry time series (%v cadence)\n", o.SampleInterval)
		WriteSeries(w, "  ", r.Series)
	}
}

// RunJSON is the machine-readable copy of a run's report (-json): the
// header's configuration, the totals, each operation's and each
// category's counts and TTC percentiles, the run's latency summary
// (RunLatency; absent when nothing completed), the live heap after the
// run, the engine counters and the sampled series. Structure and Stats are
// encoded whole, so a counter the engine gains appears here without an
// edit.
type RunJSON struct {
	Engine        string          `json:"engine"`
	Seed          uint64          `json:"seed"`
	Threads       int             `json:"threads"`
	GOMAXPROCS    int             `json:"gomaxprocs"`
	Workload      string          `json:"workload"`
	Structure     core.Params     `json:"structure"`
	ElapsedS      float64         `json:"elapsed_s"`
	Succeeded     int64           `json:"succeeded"`
	Failed        int64           `json:"failed"`
	Ops           []OpJSON        `json:"ops"`
	Categories    []OpJSON        `json:"categories"`
	Latency       *LatencySummary `json:"latency,omitempty"`
	LiveHeapBytes uint64          `json:"live_heap_bytes"`
	Stats         stm.Stats       `json:"stats"`
	Series        []SamplePoint   `json:"series"`
}

// OpJSON is one row of a RunJSON's ops (one operation, in registry order)
// or categories (one category of the mix, in §3's order). Times are in
// ns; the percentiles are Histogram.Quantile's, 0 without a success.
type OpJSON struct {
	Name      string        `json:"name"`
	Succeeded int64         `json:"succeeded"`
	Failed    int64         `json:"failed"`
	MaxTTC    time.Duration `json:"max_ttc_ns"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`
}

// opJSON builds one row from a row's counts and TTC histogram.
func opJSON(name string, succeeded, failed int64, ttc *Histogram) OpJSON {
	return OpJSON{Name: name, Succeeded: succeeded, Failed: failed, MaxTTC: ttc.Max(),
		P50: ttc.Quantile(0.50), P99: ttc.Quantile(0.99)}
}

// NewRunJSON builds the -json document of a run from its Result.
func NewRunJSON(r *Result) RunJSON {
	o := r.Options
	doc := RunJSON{
		Engine:        stm.EngineSpec{Name: o.Strategy, Options: o.Engine}.String(),
		Seed:          o.Seed,
		Threads:       o.Threads,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workload:      o.Workload.String(),
		Structure:     o.Params,
		ElapsedS:      r.Elapsed.Seconds(),
		Succeeded:     r.TotalSucceeded(),
		Failed:        r.TotalAttempted() - r.TotalSucceeded(),
		LiveHeapBytes: r.LiveHeapBytes,
		Stats:         r.EngineStats,
		Series:        r.Series,
	}
	for _, op := range sortedOps(r) {
		doc.Ops = append(doc.Ops, opJSON(op.Name, op.Succeeded, op.Failed, &op.TTC))
	}
	cats := r.ByCategory()
	for _, cat := range categories {
		if c, ok := cats[cat]; ok {
			doc.Categories = append(doc.Categories, opJSON(cat.String(), c.Succeeded, c.Failed, &c.TTC))
		}
	}
	if ls, ok := r.RunLatency(); ok {
		doc.Latency = &ls
	}
	return doc
}

// writeMsHistogram prints h as Appendix A's " ms,count" pairs and ends the
// line. Each bucket counts under its lower edge in whole milliseconds, and
// buckets come in lower-edge order, so equal keys are adjacent and merge.
func writeMsHistogram(w io.Writer, h *Histogram) {
	key, n := int64(0), int64(0)
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if k := lowerEdge(b).Milliseconds(); k != key {
			if n > 0 {
				fmt.Fprintf(w, " %d,%d", key, n)
			}
			key, n = k, 0
		}
		n += c
	}
	if n > 0 {
		fmt.Fprintf(w, " %d,%d", key, n)
	}
	fmt.Fprintln(w)
}

// ms converts a duration to fractional milliseconds for the text report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteJSON writes a run's -json document (NewRunJSON).
func WriteJSON(w io.Writer, r *Result) error { return EncodeJSON(w, NewRunJSON(r)) }

// EncodeJSON writes v as indented JSON: the one encoding of every -json
// document.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteSeries prints a sampled telemetry curve as a fixed-width table, one
// row per interval, each line prefixed with indent. Shared by the
// Appendix-A report and the scenario per-phase reports.
func WriteSeries(w io.Writer, indent string, series []SamplePoint) {
	fmt.Fprintf(w, "%s%8s %10s %10s %8s %8s %8s %8s\n", indent,
		"t[s]", "ops/s", "commits", "abort%", "snapRst", "shed/s", "serial")
	for _, p := range series {
		fmt.Fprintf(w, "%s%8.3f %10.0f %10d %8.1f %8d %8.0f %8d\n", indent,
			p.T, p.OpsPerSec, p.Commits, p.AbortPct,
			p.SnapshotRestarts, p.ShedPerSec, p.SerialFallbacks)
	}
}

// safeRate divides two counters, returning 0 for an empty denominator.
func safeRate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
