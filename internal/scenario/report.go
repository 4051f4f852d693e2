package scenario

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/stm"
)

// phaseMode formats the driver column.
func phaseMode(ph Phase) string {
	if ph.OpenLoop {
		return fmt.Sprintf("open@%.0f/s", ph.ArrivalRate)
	}
	return "closed"
}

// phaseSkew formats the skew column.
func phaseSkew(ph Phase) string {
	if ph.SkewTheta == 0 {
		return "-"
	}
	if ph.SkewShift == 0 {
		return fmt.Sprintf("θ=%.2f", ph.SkewTheta)
	}
	return fmt.Sprintf("θ=%.2f@%.2f", ph.SkewTheta, ph.SkewShift)
}

// phaseLength formats the length column.
func phaseLength(ph Phase) string {
	if ph.MaxOps > 0 {
		return fmt.Sprintf("%d ops", ph.MaxOps)
	}
	return ph.Duration.Round(time.Millisecond).String()
}

// WriteReport prints the per-phase table and the cross-phase comparison.
// Open-loop rows report p50/p99 response time (queueing included);
// closed-loop rows report p50/p99 TTC over the whole mix; a phase that
// completed nothing shows "-".
// The cfl/tmo/inj columns are the per-phase abort-cause breakdown —
// conflict aborts, deadline give-ups and injected-fault firings — as
// attribution, not a partition (injected conflicts also count as
// conflicts; see stm.Stats.Lines).
func WriteReport(w io.Writer, rep *Report) {
	sc := rep.Scenario
	fmt.Fprintf(w, "Scenario %q — %d phases, strategy %s, %d composite parts, seed %d, gomaxprocs %d\n",
		sc.Name, len(sc.Phases), rep.Strategy, rep.Params.NumCompParts, rep.Seed, runtime.GOMAXPROCS(0))
	if sc.Description != "" {
		fmt.Fprintf(w, "  %s\n", sc.Description)
	}
	if len(rep.Phases) > 0 {
		// Every phase carries the configuration the executor was built
		// with: the run's spec with the scenario's own keys applied.
		o := rep.Phases[0].Result.Options
		fmt.Fprintf(w, "  engine: %s\n", stm.EngineSpec{Name: rep.Strategy, Options: o.Engine})
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "  %-14s %7s %-12s %-15s %-12s %8s %10s %8s %7s %7s %7s %8s %9s %9s\n",
		"phase", "threads", "mode", "workload", "skew", "length", "ops/s", "abort%",
		"cfl", "tmo", "inj", "snapRst", "p50[ms]", "p99[ms]")
	for _, pr := range rep.Phases {
		ph, res := pr.Phase, pr.Result
		p50, p99 := "-", "-"
		if ls, ok := res.RunLatency(); ok {
			p50 = fmt.Sprintf("%.3f", ls.P50.Seconds()*1e3)
			p99 = fmt.Sprintf("%.3f", ls.P99.Seconds()*1e3)
		}
		es := res.EngineStats
		fmt.Fprintf(w, "  %-14s %7d %-12s %-15s %-12s %8s %10.0f %8.1f %7d %7d %7d %8d %9s %9s\n",
			ph.Name, ph.Threads, phaseMode(ph), ph.Workload.String(), phaseSkew(ph),
			phaseLength(ph), res.Throughput(), 100*es.AbortRate(),
			es.ConflictAborts, es.TimeoutAborts, es.InjectedFaults,
			es.SnapshotRestarts, p50, p99)
	}
	fmt.Fprintln(w)

	for _, pr := range rep.Phases {
		if len(pr.Result.Series) == 0 {
			continue
		}
		fmt.Fprintf(w, "  Telemetry time series, phase %q\n", pr.Phase.Name)
		harness.WriteSeries(w, "    ", pr.Result.Series)
		fmt.Fprintln(w)
	}

	writeComparison(w, rep)
}

// phaseJSON is one phase's entry of the scenario -json document: the
// phase name and the phase's run document.
type phaseJSON struct {
	Phase string `json:"phase"`
	harness.RunJSON
}

// WriteJSON writes the scenario -json document: the scenario name and one
// harness.RunJSON per phase, in run order.
func WriteJSON(w io.Writer, rep *Report) error {
	doc := struct {
		Scenario string      `json:"scenario"`
		Phases   []phaseJSON `json:"phases"`
	}{Scenario: rep.Scenario.Name}
	for _, pr := range rep.Phases {
		doc.Phases = append(doc.Phases, phaseJSON{Phase: pr.Phase.Name, RunJSON: harness.NewRunJSON(pr.Result)})
	}
	return harness.EncodeJSON(w, doc)
}

// writeComparison prints the cross-phase summary: throughput extremes and
// spread, response-time extremes over the open-loop phases, and the abort
// range over phases with transactional activity.
func writeComparison(w io.Writer, rep *Report) {
	fmt.Fprintln(w, "Cross-phase comparison")
	if len(rep.Phases) == 0 {
		return
	}

	best, worst := rep.Phases[0], rep.Phases[0]
	for _, pr := range rep.Phases[1:] {
		if pr.Result.Throughput() > best.Result.Throughput() {
			best = pr
		}
		if pr.Result.Throughput() < worst.Result.Throughput() {
			worst = pr
		}
	}
	spread := 0.0
	if worst.Result.Throughput() > 0 {
		spread = best.Result.Throughput() / worst.Result.Throughput()
	}
	fmt.Fprintf(w, "  throughput:   best %q %.0f ops/s, worst %q %.0f ops/s (spread %.2fx)\n",
		best.Phase.Name, best.Result.Throughput(), worst.Phase.Name, worst.Result.Throughput(), spread)

	var openBest, openWorst *PhaseResult
	var openBestP99, openWorstP99 time.Duration
	for i := range rep.Phases {
		pr := &rep.Phases[i]
		if !pr.Phase.OpenLoop {
			continue
		}
		ls, ok := pr.Result.Response.Summary()
		if !ok {
			continue
		}
		if openBest == nil || ls.P99 < openBestP99 {
			openBest, openBestP99 = pr, ls.P99
		}
		if openWorst == nil || ls.P99 > openWorstP99 {
			openWorst, openWorstP99 = pr, ls.P99
		}
	}
	if openWorst != nil {
		fmt.Fprintf(w, "  response p99: best %q %.3f ms, worst %q %.3f ms (open-loop phases, queueing included)\n",
			openBest.Phase.Name, openBestP99.Seconds()*1e3, openWorst.Phase.Name, openWorstP99.Seconds()*1e3)
	}

	minAbort, maxAbort := -1.0, -1.0
	for _, pr := range rep.Phases {
		if pr.Result.EngineStats.Attempts() == 0 {
			continue
		}
		a := 100 * pr.Result.EngineStats.AbortRate()
		if minAbort < 0 || a < minAbort {
			minAbort = a
		}
		if a > maxAbort {
			maxAbort = a
		}
	}
	if minAbort >= 0 {
		fmt.Fprintf(w, "  abort rate:   %.1f%% to %.1f%% across phases\n", minAbort, maxAbort)
	}
	// Fold the per-phase deltas into one total and hand it to the shared
	// stm.Stats formatter — the same canonical block the harness report and
	// the CLIs print, so the aggregate view never drifts from theirs.
	var total stm.Stats
	var shedOps, arrivals int64
	for _, pr := range rep.Phases {
		total = total.Add(pr.Result.EngineStats)
		shedOps += pr.Result.ShedOps
		arrivals += pr.Result.Arrivals
	}
	if total.Attempts() > 0 {
		for _, line := range total.Lines() {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if shedOps > 0 {
		pct := 0.0
		if arrivals > 0 {
			pct = 100 * float64(shedOps) / float64(arrivals)
		}
		fmt.Fprintf(w, "  shedding:     %d of %d open-loop arrivals shed (%.1f%%)\n", shedOps, arrivals, pct)
	}
	fmt.Fprintf(w, "  elapsed:      %.3f s over %d phases\n", rep.Elapsed.Seconds(), len(rep.Phases))
}
