package main

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sync7"
)

func tinyConfig(t *testing.T, name string) *config {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &config{
		wl: wl, m: newMix(wl.opts), seed: 7, seconds: 0.2,
		params: core.Tiny(), scale: 0.1, threads: workers(),
	}
}

func checkReport(t *testing.T, r *report, declared []manifestMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v failed=%d gate=%v", r.Correct, r.Failed, r.Gate)
	}
	if r.Attempted < 1 {
		t.Errorf("attempted=%d", r.Attempted)
	}
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json declares %s, the program did not print it", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(declared) {
		names := map[string]bool{}
		for _, d := range declared {
			names[d.Name] = true
		}
		for name := range r.Metrics {
			if !names[name] {
				t.Errorf("the program printed %s, BENCHMARK.json does not declare it", name)
			}
		}
	}
}

// TestSuiteMatchesManifest runs every workload at smoke scale, untraced and
// traced, and holds the program to BENCHMARK.json: same workloads, same
// metrics with the same units and directions, finite values, gate passed.
func TestSuiteMatchesManifest(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, w.Name, workloads[i].name)
		}
		if frozen := fmt.Sprintf("; %d ops/worker/slice", workloads[i].sliceOps); !strings.HasSuffix(w.Why, frozen) {
			t.Errorf("%s: BENCHMARK.json's why does not end in %q", w.Name, frozen)
		}
	}
	for _, side := range []struct {
		decls    []metricDecl
		declared []manifestMetric
	}{{endToEnd, man.EndToEnd}, {perLayer, man.PerLayer}} {
		better := map[string]string{}
		for _, d := range side.declared {
			better[d.Name] = d.Better
		}
		for _, d := range side.decls {
			want := "lower"
			if d.higher {
				want = "higher"
			}
			if better[d.name] != want {
				t.Errorf("%s: program says %s is better, BENCHMARK.json says %q", d.name, want, better[d.name])
			}
		}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			c := tinyConfig(t, wl.name)
			r, err := c.runEndToEnd()
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, man.EndToEnd)
			for name, m := range r.Metrics {
				if m.Absent || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v (absent=%v), want > 0", name, m.Value, m.Absent)
				}
			}
			r, err = c.runTraced()
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, r, man.PerLayer)
			// A metric is absent exactly where it does not apply.
			kind := strategyKind(wl.opts.Strategy)
			for name, applies := range map[string]bool{
				"sync7.lock_ns_per_op":           kind == sync7.KindLock,
				"sync7.lock_share":               kind == sync7.KindLock,
				"stm.txn_overhead_ns_per_op":     kind == sync7.KindSTM,
				"stm.access_overhead_ns":         kind == sync7.KindSTM,
				"stm.contention_ns_per_op":       kind == sync7.KindSTM,
				"stm.attempts_per_op":            kind == sync7.KindSTM,
				"ops.body_ns_per_op.direct.long": wl.opts.LongTraversals,
				"ops.time_share.long":            wl.opts.LongTraversals,
				"ops.body_ns_per_op.direct.st":   true,
				"harness.floor_ns_per_op":        true,
				"trace.overhead_share":           true,
				"gc.alloc_bytes_per_op":          true,
			} {
				if r.Metrics[name].Absent == applies {
					t.Errorf("%s: absent=%v, applies=%v", name, applies, applies)
				}
			}
		})
	}
}

func TestStreamHoldsTable2Shares(t *testing.T) {
	m := newMix(workloads[0].opts)
	const n = 1400
	counts := make([]int, len(m.ops))
	for _, idx := range m.stream(n, rng.New(1)) {
		counts[idx]++
	}
	total := 0
	for i, c := range counts {
		total += c
		if d := math.Abs(float64(c) - m.ratios[i]*n); d >= 1 {
			t.Errorf("%s: %d of %d, Table 2 says %.2f", m.ops[i].Name, c, n, m.ratios[i]*n)
		}
	}
	if total != n {
		t.Errorf("stream has %d operations, want %d", total, n)
	}
}

// The acceptance rule is stated with Python's statistics.quantiles(v, n=4);
// these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{3, 1, 7}, 1, 3, 7},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
