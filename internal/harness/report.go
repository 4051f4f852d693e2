package harness

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"

	"repro/internal/ops"
	"repro/internal/sync7"
	"repro/internal/telemetry"
	"repro/stm"
)

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

// WriteReport prints the Appendix-A report: benchmark parameters, optional
// TTC histograms, detailed per-operation results, sample errors and the
// summary (per-category counts, totals, the two throughput numbers and the
// elapsed time).
func WriteReport(w io.Writer, r *Result) {
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

	if o.CollectHistograms {
		fmt.Fprintln(w, "TTC histograms")
		for _, op := range sortedOps(r) {
			if len(op.Hist) == 0 {
				continue
			}
			fmt.Fprintf(w, "TTC histogram for %s:", op.Name)
			keys := make([]int64, 0, len(op.Hist))
			for ms := range op.Hist {
				keys = append(keys, ms)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, ms := range keys {
				fmt.Fprintf(w, " %d,%d", ms, op.Hist[ms])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "Detailed results")
	if o.CollectHistograms {
		fmt.Fprintf(w, "  %-6s %12s %14s %10s %10s %10s %10s\n",
			"op", "succeeded", "max ttc [ms]", "failed", "p50 [ms]", "p90 [ms]", "p99 [ms]")
		for _, op := range sortedOps(r) {
			s, ok := r.Latency(op.Name)
			if !ok {
				fmt.Fprintf(w, "  %-6s %12d %14.3f %10d\n",
					op.Name, op.Succeeded, float64(op.MaxTTC.Microseconds())/1000.0, op.Failed)
				continue
			}
			fmt.Fprintf(w, "  %-6s %12d %14.3f %10d %10.0f %10.0f %10.0f\n",
				op.Name, op.Succeeded, float64(op.MaxTTC.Microseconds())/1000.0, op.Failed,
				s.P50Ms, s.P90Ms, s.P99Ms)
		}
	} else {
		fmt.Fprintf(w, "  %-6s %12s %14s %10s\n", "op", "succeeded", "max ttc [ms]", "failed")
		for _, op := range sortedOps(r) {
			fmt.Fprintf(w, "  %-6s %12d %14.3f %10d\n",
				op.Name, op.Succeeded, float64(op.MaxTTC.Microseconds())/1000.0, op.Failed)
		}
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
	for _, cat := range []ops.Category{ops.LongTraversal, ops.ShortTraversal, ops.ShortOperation, ops.StructureModification} {
		c, ok := cats[cat]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-24s succeeded %10d  max ttc %10.3f ms  failed %8d  started %10d\n",
			cat.String()+":", c.Succeeded, float64(c.MaxTTC.Microseconds())/1000.0, c.Failed, c.Succeeded+c.Failed)
	}
	fmt.Fprintf(w, "  total throughput:     %10.1f ops/s (successful), %10.1f ops/s (attempted)\n",
		r.Throughput(), r.AttemptedThroughput())
	fmt.Fprintf(w, "  elapsed time:         %10.3f s\n", r.Elapsed.Seconds())
	if o.OpenLoop {
		fmt.Fprintf(w, "  open loop:            %d arrivals offered @ %.0f ops/s\n", r.Arrivals, o.ArrivalRate)
		if rs, ok := r.ResponseLatency(); ok {
			fmt.Fprintf(w, "  response time:        p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, max %d ms (queueing included)\n",
				rs.P50Ms, rs.P90Ms, rs.P99Ms, rs.MaxMs)
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

// WriteSeries prints a sampled telemetry curve as a fixed-width table, one
// row per interval, each line prefixed with indent. Shared by the
// Appendix-A report and the scenario per-phase reports.
func WriteSeries(w io.Writer, indent string, series []telemetry.SamplePoint) {
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
