// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations over the design choices DESIGN.md calls out. Each
// Benchmark corresponds to one experiment; sub-benchmarks are its data
// points (strategy x workload x thread count).
//
// The structure preset is Tiny so `go test -bench=.` finishes in minutes;
// cmd/experiments runs the same sweeps at -size small/medium for the
// numbers recorded in EXPERIMENTS.md. Shapes (who wins, rough factors) are
// preserved across sizes; see EXPERIMENTS.md for the paper-vs-measured
// discussion.
package stmbench7_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
	"repro/stm"
)

// benchSetup builds an executor + structure for a strategy.
func benchSetup(b *testing.B, cfg sync7.Config, p core.Params) (sync7.Executor, *core.Structure) {
	b.Helper()
	cfg.NumAssmLevels = p.NumAssmLevels
	ex, err := sync7.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.Build(p, 42, ex.Engine().VarSpace())
	if err != nil {
		b.Fatal(err)
	}
	return ex, s
}

// benchThroughput drives b.N operations from the profile through the
// executor on `threads` workers and reports throughput.
func benchThroughput(b *testing.B, ex sync7.Executor, s *core.Structure, profile ops.Profile, threads int) {
	b.Helper()
	picker := ops.NewPicker(profile)
	var idx atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + t))
			for idx.Add(1) <= int64(b.N) {
				op := picker.Pick(r)
				if _, err := ex.Execute(op, s, r); err != nil && !errors.Is(err, ops.ErrFailed) {
					b.Error(err)
					return
				}
			}
		}(t)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

// --- Figure 3: maximum latency of long traversals under background load ---

// BenchmarkFigure3 measures the latency of one long traversal (T1 for the
// read-dominated panel, T2b for the write-dominated one) while background
// threads run the full operation mix — the paper's "all operations enabled"
// setting. The maxTTC-ms metric is the Figure 3 y-axis.
func BenchmarkFigure3(b *testing.B) {
	for _, pt := range []struct {
		label string
		w     ops.Workload
		op    string
	}{
		{"R-T1", ops.ReadDominated, "T1"},
		{"W-T2b", ops.WriteDominated, "T2b"},
	} {
		for _, strat := range []string{"coarse", "medium"} {
			for _, threads := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/threads=%d", pt.label, strat, threads)
				b.Run(name, func(b *testing.B) {
					ex, s := benchSetup(b, sync7.Config{Strategy: strat}, core.Tiny())
					traversal, _ := ops.ByName(pt.op)
					profile := ops.Profile{Workload: pt.w, LongTraversals: true, StructureMods: true}
					picker := ops.NewPicker(profile)

					var stop atomic.Bool
					var wg sync.WaitGroup
					for t := 0; t < threads-1; t++ {
						wg.Add(1)
						go func(t int) {
							defer wg.Done()
							r := rng.New(uint64(31 + t))
							for !stop.Load() {
								op := picker.Pick(r)
								ex.Execute(op, s, r)
							}
						}(t)
					}
					r := rng.New(7)
					var maxTTC time.Duration
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						t0 := time.Now()
						if _, err := ex.Execute(traversal, s, r); err != nil {
							b.Fatal(err)
						}
						if d := time.Since(t0); d > maxTTC {
							maxTTC = d
						}
					}
					b.StopTimer()
					stop.Store(true)
					wg.Wait()
					b.ReportMetric(float64(maxTTC.Microseconds())/1000.0, "maxTTC-ms")
				})
			}
		}
	}
}

// --- Figure 4: throughput, coarse vs medium, long traversals disabled -----

func BenchmarkFigure4(b *testing.B) {
	for _, wl := range []struct {
		label string
		w     ops.Workload
	}{
		{"R", ops.ReadDominated},
		{"RW", ops.ReadWrite},
		{"W", ops.WriteDominated},
	} {
		for _, strat := range []string{"coarse", "medium"} {
			for _, threads := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.label, strat, threads)
				b.Run(name, func(b *testing.B) {
					ex, s := benchSetup(b, sync7.Config{Strategy: strat}, core.Tiny())
					profile := ops.Profile{Workload: wl.w, LongTraversals: false, StructureMods: true}
					benchThroughput(b, ex, s, profile, threads)
				})
			}
		}
	}
}

// --- Table 3: throughput, coarse locking vs OSTM, long traversals disabled

func BenchmarkTable3(b *testing.B) {
	for _, wl := range []struct {
		label string
		w     ops.Workload
	}{
		{"R", ops.ReadDominated},
		{"RW", ops.ReadWrite},
		{"W", ops.WriteDominated},
	} {
		for _, strat := range []string{"coarse", "ostm"} {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.label, strat, threads)
				b.Run(name, func(b *testing.B) {
					ex, s := benchSetup(b, sync7.Config{Strategy: strat}, core.Tiny())
					profile := ops.Profile{Workload: wl.w, LongTraversals: false, StructureMods: true}
					benchThroughput(b, ex, s, profile, threads)
				})
			}
		}
	}
}

// --- Figure 6: reduced operation set, coarse/medium/ostm/tl2 --------------

func BenchmarkFigure6(b *testing.B) {
	for _, wl := range []struct {
		label string
		w     ops.Workload
	}{
		{"R", ops.ReadDominated},
		{"RW", ops.ReadWrite},
		{"W", ops.WriteDominated},
	} {
		for _, strat := range []string{"medium", "coarse", "ostm", "tl2"} {
			for _, threads := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/threads=%d", wl.label, strat, threads)
				b.Run(name, func(b *testing.B) {
					ex, s := benchSetup(b, sync7.Config{Strategy: strat}, core.Tiny())
					profile := ops.Profile{Workload: wl.w, LongTraversals: false, StructureMods: true, Reduced: true}
					benchThroughput(b, ex, s, profile, threads)
				})
			}
		}
	}
}

// --- §5 headline: one long traversal per strategy --------------------------

// BenchmarkHeadlineT1 times single executions of the full read-only
// traversal T1 under every strategy. ns/op IS the Figure-of-merit: the
// OSTM/coarse ratio is the paper's "orders of magnitude" claim, driven by
// the quadratic validation count (reported as validations/op).
func BenchmarkHeadlineT1(b *testing.B) {
	for _, pt := range []struct {
		name string
		cfg  sync7.Config
	}{
		{"coarse", sync7.Config{Strategy: "coarse"}},
		{"medium", sync7.Config{Strategy: "medium"}},
		{"tl2", sync7.Config{Strategy: "tl2"}},
		{"norec", sync7.Config{Strategy: "norec"}},
		{"ostm", sync7.Config{Strategy: "ostm"}},
		{"ostm-committime", sync7.Config{Strategy: "ostm", Engine: stm.EngineOptions{CommitTimeValidationOnly: true}}},
	} {
		b.Run(pt.name, func(b *testing.B) {
			ex, s := benchSetup(b, pt.cfg, core.Tiny())
			t1, _ := ops.ByName("T1")
			r := rng.New(7)
			before := ex.Engine().Stats().Validations
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(t1, s, r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			v := ex.Engine().Stats().Validations - before
			b.ReportMetric(float64(v)/float64(b.N), "validations/op")
		})
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationValidation isolates OSTM's incremental O(k²) validation
// against commit-time-only validation on a read-traversal-heavy profile.
func BenchmarkAblationValidation(b *testing.B) {
	for _, pt := range []struct {
		name string
		ctv  bool
	}{
		{"incremental", false},
		{"commit-time", true},
	} {
		b.Run(pt.name, func(b *testing.B) {
			ex, s := benchSetup(b, sync7.Config{Strategy: "ostm", Engine: stm.EngineOptions{CommitTimeValidationOnly: pt.ctv}}, core.Tiny())
			st9, _ := ops.ByName("ST9") // whole-graph read traversal
			r := rng.New(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.Execute(st9, s, r)
			}
		})
	}
}

// BenchmarkAblationCM compares contention managers under a write-heavy
// 8-thread load on the reduced op set (pure conflict management, no
// pathological objects).
func BenchmarkAblationCM(b *testing.B) {
	for _, cm := range []stm.ContentionManager{stm.Polka{}, stm.Timid{}} {
		b.Run(cm.Name(), func(b *testing.B) {
			ex, s := benchSetup(b, sync7.Config{Strategy: "ostm", Engine: stm.EngineOptions{CM: cm}}, core.Tiny())
			profile := ops.Profile{Workload: ops.WriteDominated, LongTraversals: false, StructureMods: false, Reduced: true}
			benchThroughput(b, ex, s, profile, 8)
			b.ReportMetric(100*ex.Engine().Stats().AbortRate(), "abort-%")
		})
	}
}

// BenchmarkAblationEngines compares every registered STM engine (ostm,
// tl2, norec, ...) on the standard read-write mix — the cited "solutions
// already proposed" gap. New engines join via the sync7 registry; no
// edit here required.
func BenchmarkAblationEngines(b *testing.B) {
	for _, strat := range sync7.STMStrategies() {
		for _, threads := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", strat, threads), func(b *testing.B) {
				ex, s := benchSetup(b, sync7.Config{Strategy: strat}, core.Tiny())
				profile := ops.Profile{Workload: ops.ReadWrite, LongTraversals: false, StructureMods: true}
				benchThroughput(b, ex, s, profile, threads)
			})
		}
	}
}

// BenchmarkAblationChunkedManual: OP11 (manual case-swap) cost under TL2
// with the paper's single-object manual vs the §5 chunked manual.
func BenchmarkAblationChunkedManual(b *testing.B) {
	for _, chunks := range []int{1, 16} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			p := core.Tiny()
			p.ManualSize = 64 * 1024
			p.ManualChunks = chunks
			ex, s := benchSetup(b, sync7.Config{Strategy: "tl2"}, p)
			op11, _ := ops.ByName("OP11")
			op4, _ := ops.ByName("OP4")
			r := rng.New(5)
			// Background readers hammer OP4 so chunking actually matters
			// (reader/writer overlap on distinct chunks).
			var stop atomic.Bool
			var wg sync.WaitGroup
			for t := 0; t < 3; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					rr := rng.New(uint64(100 + t))
					for !stop.Load() {
						ex.Execute(op4, s, rr)
					}
				}(t)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(op11, s, r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkAblationGrouping: §5's object-grouping proposal — whole-graph
// traversal cost under OSTM with one Var per atomic part vs one Var per
// composite-part graph.
func BenchmarkAblationGrouping(b *testing.B) {
	for _, pt := range []struct {
		name    string
		grouped bool
	}{
		{"per-part", false},
		{"grouped", true},
	} {
		b.Run(pt.name, func(b *testing.B) {
			p := core.Tiny()
			p.GroupAtomicParts = pt.grouped
			ex, s := benchSetup(b, sync7.Config{Strategy: "ostm"}, p)
			t1, _ := ops.ByName("T1")
			r := rng.New(11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(t1, s, r); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ex.Engine().Stats().Validations)/float64(b.N), "validations/op")
		})
	}
}

// BenchmarkAblationVisibleReads: invisible reads + O(k²) validation versus
// visible reader registration — the paper's implicit central ablation. The
// long read-only traversal shows validation cost disappearing; the
// contended mixed workload shows the price (reader-registration CAS traffic
// and eager reader/writer arbitration).
func BenchmarkAblationVisibleReads(b *testing.B) {
	for _, pt := range []struct {
		name    string
		visible bool
	}{
		{"invisible", false},
		{"visible", true},
	} {
		b.Run("T1-readonly/"+pt.name, func(b *testing.B) {
			eng := stm.NewOSTM(stm.EngineOptions{VisibleReads: pt.visible})
			s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
			if err != nil {
				b.Fatal(err)
			}
			t1, _ := ops.ByName("T1")
			r := rng.New(7)
			fn := func(tx stm.Tx) error {
				_, err := t1.Run(tx, s, r)
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Atomic(fn)
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Stats().Validations)/float64(b.N), "validations/op")
		})
		b.Run("mixed-8thr/"+pt.name, func(b *testing.B) {
			eng := stm.NewOSTM(stm.EngineOptions{VisibleReads: pt.visible})
			s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
			if err != nil {
				b.Fatal(err)
			}
			profile := ops.Profile{Workload: ops.ReadWrite, LongTraversals: false, StructureMods: false, Reduced: true}
			picker := ops.NewPicker(profile)
			var idx atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for t := 0; t < 8; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					r := rng.New(uint64(800 + t))
					var op *ops.Op
					fn := func(tx stm.Tx) error {
						_, err := op.Run(tx, s, r)
						return err
					}
					for idx.Add(1) <= int64(b.N) {
						op = picker.Pick(r)
						eng.Atomic(fn)
					}
				}(t)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
			b.ReportMetric(100*eng.Stats().AbortRate(), "abort-%")
		})
	}
}

// BenchmarkAblationCommitCounter: the Spear-et-al. global-commit-counter
// validation heuristic on a long read-only traversal with no contention —
// the best case the heuristic targets.
func BenchmarkAblationCommitCounter(b *testing.B) {
	for _, pt := range []struct {
		name      string
		heuristic bool
	}{
		{"always-validate", false},
		{"commit-counter", true},
	} {
		b.Run(pt.name, func(b *testing.B) {
			eng := stm.NewOSTM(stm.EngineOptions{CommitCounterHeuristic: pt.heuristic})
			s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
			if err != nil {
				b.Fatal(err)
			}
			t1, _ := ops.ByName("T1")
			r := rng.New(7)
			fn := func(tx stm.Tx) error {
				_, err := t1.Run(tx, s, r)
				return err
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Atomic(fn)
			}
			b.StopTimer()
			b.ReportMetric(float64(eng.Stats().Validations)/float64(b.N), "validations/op")
		})
	}
}

// --- STM micro-benchmarks ---------------------------------------------------

// BenchmarkSTMReadWrite measures raw per-access costs of every
// registered engine (the constant factors under all of the above).
func BenchmarkSTMReadWrite(b *testing.B) {
	for _, name := range stm.Registered() {
		newEngine := func() stm.Engine {
			eng, err := stm.New(name)
			if err != nil {
				b.Fatal(err)
			}
			return eng
		}
		b.Run(name+"/read100", func(b *testing.B) {
			eng := newEngine()
			cells := make([]*stm.Cell[int], 100)
			for i := range cells {
				cells[i] = stm.NewCell(eng.VarSpace(), i)
			}
			// Hoisted: the closure must not be rebuilt per iteration, or
			// its allocation drowns the engine's in the allocs/op column.
			fn := func(tx stm.Tx) error {
				for _, c := range cells {
					c.Get(tx)
				}
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Atomic(fn)
			}
		})
		b.Run(name+"/write10", func(b *testing.B) {
			eng := newEngine()
			cells := make([]*stm.Cell[int], 10)
			for i := range cells {
				cells[i] = stm.NewCell(eng.VarSpace(), i)
			}
			inc := func(v int) int { return v + 1 }
			fn := func(tx stm.Tx) error {
				for _, c := range cells {
					c.Update(tx, inc)
				}
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Atomic(fn)
			}
		})
	}
}
