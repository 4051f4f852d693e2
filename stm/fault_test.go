package stm

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// chaosEngineMakers builds each STM engine with an explicit config so the
// chaos tests can attach fault plans, deadlines and serial fallback
// uniformly. Direct is excluded: it has no retry loop to inject into.
func chaosEngineMakers(plan string, deadline time.Duration, serial bool, maxRetries int) map[string]func() Engine {
	fp := mustFaultPlan(plan)
	return map[string]func() Engine{
		"tl2": func() Engine {
			return NewTL2With(TL2Config{EngineOptions: EngineOptions{TxDeadline: deadline, SerialFallback: serial, Faults: fp}, MaxRetries: maxRetries})
		},
		"norec": func() Engine {
			return NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{TxDeadline: deadline, SerialFallback: serial, Faults: fp}, MaxRetries: maxRetries})
		},
		"ostm": func() Engine {
			return NewOSTMWith(OSTMConfig{EngineOptions: EngineOptions{TxDeadline: deadline, SerialFallback: serial, Faults: fp}, MaxRetries: maxRetries})
		},
	}
}

// setMaxProcs pins GOMAXPROCS and returns a restore func.
func setMaxProcs(n int) func() {
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

func mustFaultPlan(s string) *FaultPlan {
	p, err := ParseFaultPlan(s)
	if err != nil {
		panic(err)
	}
	return p
}

func TestParseFaultPlan(t *testing.T) {
	t.Run("round-trip", func(t *testing.T) {
		for _, s := range []string{
			"precommit:1/64:100µs",
			"seed=7,precommit:1/48:80µs,lockhold:1/64:120µs,clocktick:1/96:40µs,abort:1/24",
			"abort:1/1",
		} {
			p, err := ParseFaultPlan(s)
			if err != nil {
				t.Fatalf("ParseFaultPlan(%q): %v", s, err)
			}
			if got := p.String(); got != s {
				t.Errorf("round trip: %q -> %q", s, got)
			}
		}
	})
	t.Run("default-stall", func(t *testing.T) {
		p, err := ParseFaultPlan("lockhold:1/8")
		if err != nil {
			t.Fatal(err)
		}
		if p.sites[FaultLockHold].stall != defaultFaultStall {
			t.Errorf("stall = %v, want default %v", p.sites[FaultLockHold].stall, defaultFaultStall)
		}
	})
	t.Run("empty-is-nil", func(t *testing.T) {
		p, err := ParseFaultPlan("  ")
		if p != nil || err != nil {
			t.Errorf("ParseFaultPlan(blank) = %v, %v; want nil, nil", p, err)
		}
		if (*FaultPlan)(nil).String() != "" {
			t.Error("nil plan must render as the empty string")
		}
		if (*FaultPlan)(nil).fresh() != nil {
			t.Error("nil plan must stay nil through fresh()")
		}
	})
	t.Run("malformed", func(t *testing.T) {
		for _, s := range []string{
			"seed=7",                  // a bare seed is not a plan
			"precommit",               // no rate
			"precommit:64",            // rate must be 1/N
			"precommit:1/0",           // N >= 1
			"precommit:1/-4",          // N unsigned
			"precommit:1/8:xyz",       // bad duration
			"precommit:1/8:-1ms",      // nonpositive duration
			"abort:1/8:100us",         // abort takes no duration
			"mystery:1/8",             // unknown site
			"precommit:1/8:1ms:extra", // too many fields
			"seed=zz,abort:1/8",       // bad seed
			",",                       // empty entries
		} {
			if _, err := ParseFaultPlan(s); err == nil {
				t.Errorf("ParseFaultPlan(%q) accepted, want error", s)
			}
		}
	})
}

// FuzzParseFaultPlan hardens the plan grammar: arbitrary input must never
// panic the parser, and any input it accepts must round-trip through
// String into an equivalent plan — String's rendering is the canonical
// fixed point, so parse(String(p)) must render identically.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"",
		"precommit:1/64:100µs",
		"seed=7,precommit:1/48:80µs,lockhold:1/64:120µs,clocktick:1/96:40µs,abort:1/24",
		"abort:1/1",
		"lockhold:1/8",
		"seed=7",
		"precommit:1/8:1ms:extra",
		"mystery:1/8",
		",",
		"seed=18446744073709551615,abort:1/18446744073709551615",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s) // must not panic, whatever s is
		if err != nil || p == nil {
			return
		}
		rendered := p.String()
		q, err := ParseFaultPlan(rendered)
		if err != nil {
			t.Fatalf("canonical form rejected: ParseFaultPlan(%q) -> %q, reparse: %v", s, rendered, err)
		}
		if again := q.String(); again != rendered {
			t.Fatalf("not a fixed point: %q -> %q -> %q", s, rendered, again)
		}
	})
}

// TestFaultInjectionDeterministic pins the acceptance criterion: the same
// plan seed against the same single-threaded transaction sequence fires
// the same faults — bit-for-bit equal InjectedFaults (and forced-abort
// driven ConflictAborts) across two fresh engines.
func TestFaultInjectionDeterministic(t *testing.T) {
	const plan = "seed=7,precommit:1/16:1µs,lockhold:1/24:1µs,clocktick:1/32:1µs,abort:1/12"
	run := func(mk func() Engine) Stats {
		eng := mk()
		c := NewCell(eng.VarSpace(), 0)
		for i := 0; i < 400; i++ {
			if err := eng.Atomic(func(tx Tx) error {
				c.Update(tx, func(v int) int { return v + 1 })
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
		}
		return eng.Stats()
	}
	for name, mk := range chaosEngineMakers(plan, 0, false, 0) {
		t.Run(name, func(t *testing.T) {
			a, b := run(mk), run(mk)
			if a.InjectedFaults == 0 {
				t.Fatal("InjectedFaults = 0 — the plan never fired")
			}
			if a.InjectedFaults != b.InjectedFaults {
				t.Errorf("InjectedFaults = %d vs %d across identical runs", a.InjectedFaults, b.InjectedFaults)
			}
			if a.ConflictAborts != b.ConflictAborts {
				t.Errorf("ConflictAborts = %d vs %d across identical runs", a.ConflictAborts, b.ConflictAborts)
			}
			if a.ConflictAborts == 0 {
				t.Error("ConflictAborts = 0 — forced aborts never fired single-threaded")
			}
		})
	}
}

// TestFaultPlanSnapshotIndependent: engines snapshot the plan with fresh
// counters at construction, so a shared *FaultPlan value cannot leak hit
// state from one engine into another.
func TestFaultPlanSnapshotIndependent(t *testing.T) {
	fp := mustFaultPlan("abort:1/4")
	run := func() uint64 {
		eng := NewTL2With(TL2Config{EngineOptions: EngineOptions{Faults: fp}})
		c := NewCell(eng.VarSpace(), 0)
		for i := 0; i < 100; i++ {
			if err := eng.Atomic(func(tx Tx) error { c.Set(tx, i); return nil }); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
		}
		return eng.Stats().InjectedFaults
	}
	if a, b := run(), run(); a != b {
		t.Errorf("InjectedFaults = %d vs %d — shared plan leaked hit counters across engines", a, b)
	}
}

// TestChaosBankInvariant is the chaos battery: concurrent transfers and
// snapshot readers under stalls at every probe site plus forced aborts.
// Opacity must hold (every balance sum observed, mid-run and final, is
// conserved) and progress must hold (no transaction surfaces an error —
// retries are unbounded here).
func TestChaosBankInvariant(t *testing.T) {
	const (
		accounts = 16
		initial  = 100
		writers  = 3
		readers  = 2
	)
	const plan = "seed=11,precommit:1/24:20µs,lockhold:1/32:30µs,clocktick:1/48:10µs,abort:1/16"
	for name, mk := range chaosEngineMakers(plan, 0, false, 0) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			iters := stressIters(t, 600)
			cells := make([]*Cell[int], accounts)
			for i := range cells {
				cells[i] = NewCell(eng.VarSpace(), initial)
			}
			total := accounts * initial

			var writerWG, readerWG sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(seed uint64) {
					defer writerWG.Done()
					x := seed*2654435761 + 12345
					next := func(n int) int {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						return int(x % uint64(n))
					}
					for i := 0; i < iters; i++ {
						from, to := next(accounts), next(accounts)
						if err := eng.Atomic(func(tx Tx) error {
							cells[from].Update(tx, func(v int) int { return v - 1 })
							cells[to].Update(tx, func(v int) int { return v + 1 })
							return nil
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(uint64(w + 1))
			}
			for r := 0; r < readers; r++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						sum := 0
						if err := RunReadOnly(eng, func(tx Tx) error {
							sum = 0
							for _, c := range cells {
								sum += c.Get(tx)
							}
							return nil
						}); err != nil {
							t.Errorf("reader: %v", err)
							return
						}
						if sum != total {
							t.Errorf("mid-run sum = %d, want %d (opacity violated under injected faults)", sum, total)
							return
						}
					}
				}()
			}
			writerWG.Wait()
			close(stop)
			readerWG.Wait()

			if err := eng.Atomic(func(tx Tx) error {
				sum := 0
				for _, c := range cells {
					sum += c.Get(tx)
				}
				if sum != total {
					t.Errorf("final sum = %d, want %d", sum, total)
				}
				return nil
			}); err != nil {
				t.Fatalf("final check: %v", err)
			}
			if got := eng.Stats().InjectedFaults; got == 0 {
				t.Error("InjectedFaults = 0 — the battery never exercised the plan")
			}
		})
	}
}

// TestInjectedFaultCause: a forced-abort plan that fires on every commit
// plus a bounded retry budget must surface the injected-fault cause —
// still errors.Is-matching ErrAborted — and count every firing.
func TestInjectedFaultCause(t *testing.T) {
	for name, mk := range chaosEngineMakers("abort:1/1", 0, false, 2) {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			c := NewCell(eng.VarSpace(), 0)
			err := eng.Atomic(func(tx Tx) error { c.Set(tx, 1); return nil })
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("err = %v, want ErrAborted family", err)
			}
			if !errors.Is(err, ErrInjectedFault) {
				t.Errorf("err = %v, want ErrInjectedFault", err)
			}
			if got := AbortCause(err); got != InjectedFault {
				t.Errorf("AbortCause = %v, want InjectedFault", got)
			}
			st := eng.Stats()
			if st.InjectedFaults != 3 { // attempts 0,1,2 all killed at commit
				t.Errorf("InjectedFaults = %d, want 3", st.InjectedFaults)
			}
			// Read-only transactions have no commit point to inject into.
			if err := eng.Atomic(func(tx Tx) error { c.Get(tx); return nil }); err != nil {
				t.Errorf("read-only under abort plan: %v", err)
			}
		})
	}
}

// TestSpinWaitYieldTier is the GOMAXPROCS=1 liveness regression for the
// spinWait tiering: with every committer pausing mid-commit (an injected
// lock-holder stall inside the yield tier) and all goroutines sharing
// one processor, waiters must hand the P back to the stalled holder on
// every backoff check — the run completes and conserves the counter
// instead of burning the container.
func TestSpinWaitYieldTier(t *testing.T) {
	for name, mk := range chaosEngineMakers("seed=3,lockhold:1/2:10µs", 0, false, 0) {
		t.Run(name, func(t *testing.T) {
			restore := setMaxProcs(1)
			defer restore()
			eng := mk()
			c := NewCell(eng.VarSpace(), 0)
			const goroutines, iters = 4, 150
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if err := eng.Atomic(func(tx Tx) error {
							c.Update(tx, func(v int) int { return v + 1 })
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("GOMAXPROCS=1 chaos run wedged — spinWait starved the stalled lock holder")
			}
			eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got != goroutines*iters {
					t.Errorf("counter = %d, want %d", got, goroutines*iters)
				}
				return nil
			})
		})
	}
}
