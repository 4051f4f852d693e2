package stm

import (
	"sync"
	"testing"
	"time"
)

// TestGroupCommitFollowerConflictAborts choreographs one batch
// deterministically: T1 acquires the sequence lock and stalls inside the
// lock-hold fault window; T2 — whose read set T1's write invalidates —
// arrives during the stall, enqueues as a follower, and must be aborted
// by the leader's revalidation, then retried against the new state.
func TestGroupCommitFollowerConflictAborts(t *testing.T) {
	eng := NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{GroupCommit: true, Faults: mustFaultPlan("lockhold:1/1:50ms")}})
	x := NewCell(eng.VarSpace(), 0)
	y := NewCell(eng.VarSpace(), 1)

	t2Read := make(chan struct{})
	t2Go := make(chan struct{})
	t2Done := make(chan error, 1)
	attempts := 0
	var readOnce, gateOnce sync.Once
	go func() {
		t2Done <- eng.Atomic(func(tx Tx) error {
			attempts++
			v := y.Get(tx) // joins the read set; the leader invalidates it
			x.Set(tx, v*10)
			readOnce.Do(func() { close(t2Read) })
			gateOnce.Do(func() { <-t2Go }) // park only the first attempt
			return nil
		})
	}()
	<-t2Read

	t1Done := make(chan error, 1)
	go func() {
		t1Done <- eng.Atomic(func(tx Tx) error { y.Set(tx, 2); return nil })
	}()
	// Wait until T1 holds the sequence lock (odd = writer in its window);
	// its 50ms lock-hold stall starts here, which is the join window.
	for eng.seq.Load()&1 == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	close(t2Go)

	if err := <-t1Done; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-t2Done; err != nil {
		t.Fatalf("follower: %v", err)
	}
	if attempts < 2 {
		t.Errorf("follower attempts = %d, want >= 2 (batch revalidation must abort the stale read)", attempts)
	}
	eng.Atomic(func(tx Tx) error {
		if got := x.Get(tx); got != 20 {
			t.Errorf("x = %d, want 20 (follower must retry against the leader's y=2)", got)
		}
		if got := y.Get(tx); got != 2 {
			t.Errorf("y = %d, want 2", got)
		}
		return nil
	})
	s := eng.Stats()
	if s.GroupCommits < 1 {
		t.Errorf("GroupCommits = %d, want >= 1 (T2 must have joined T1's batch)", s.GroupCommits)
	}
	if s.GroupCommitSize < 2 {
		t.Errorf("GroupCommitSize = %d, want >= 2", s.GroupCommitSize)
	}
	if s.ConflictAborts < 1 {
		t.Errorf("ConflictAborts = %d, want >= 1", s.ConflictAborts)
	}
}

// TestGroupCommitBatchesDisjointWriters parks several disjoint-access
// writers at their commit point, lets a leader take the sequence lock
// and stall in the lock-hold window, then releases them all: every
// follower must enqueue during the stall and be published by the
// leader's single drain. Disjoint write sets mean every follower
// revalidates cleanly, so the whole batch commits in one acquisition.
func TestGroupCommitBatchesDisjointWriters(t *testing.T) {
	const followers = 4
	eng := NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{GroupCommit: true, Faults: mustFaultPlan("lockhold:1/1:100ms")}})
	cells := make([]*Cell[int], followers+1)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), 0)
	}

	ready := make(chan struct{}, followers)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < followers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var once sync.Once
			if err := eng.Atomic(func(tx Tx) error {
				cells[g].Set(tx, g+1)
				once.Do(func() { ready <- struct{}{}; <-release }) // park at the commit point, first attempt only
				return nil
			}); err != nil {
				t.Errorf("follower %d: %v", g, err)
			}
		}(g)
	}
	for i := 0; i < followers; i++ {
		<-ready
	}

	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- eng.Atomic(func(tx Tx) error { cells[followers].Set(tx, 99); return nil })
	}()
	// The leader is in its 100ms lock-hold stall once the lock goes odd;
	// that window is when the released followers enqueue.
	for eng.seq.Load()&1 == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	wg.Wait()

	eng.Atomic(func(tx Tx) error {
		for g := 0; g < followers; g++ {
			if got := cells[g].Get(tx); got != g+1 {
				t.Errorf("cell %d = %d, want %d", g, got, g+1)
			}
		}
		if got := cells[followers].Get(tx); got != 99 {
			t.Errorf("leader cell = %d, want 99", got)
		}
		return nil
	})
	s := eng.Stats()
	if s.GroupCommits < 1 {
		t.Errorf("GroupCommits = %d, want >= 1 (followers must have joined the stalled leader)", s.GroupCommits)
	}
	if s.GroupCommitSize < 2 {
		t.Errorf("GroupCommitSize = %d, want >= 2", s.GroupCommitSize)
	}
	if s.ConflictAborts != 0 {
		t.Errorf("ConflictAborts = %d, want 0 (write sets are disjoint)", s.ConflictAborts)
	}
}

// TestGroupCommitChaosBankInvariant reruns the chaos bank battery on the
// combining-queue commit path: transfers and snapshot readers under
// stalls at every probe site plus forced aborts, with group commit on.
// Conservation must hold for every observed sum and progress must hold.
func TestGroupCommitChaosBankInvariant(t *testing.T) {
	const (
		accounts = 16
		initial  = 100
		writers  = 3
		readers  = 2
	)
	plan := mustFaultPlan("seed=11,precommit:1/24:20µs,lockhold:1/16:40µs,clocktick:1/48:10µs,abort:1/16")
	for name, mk := range map[string]func() Engine{
		"norec-group": func() Engine {
			return NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{GroupCommit: true, Faults: plan}})
		},
		"norec-group-mv4": func() Engine {
			return NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{Versions: 4, GroupCommit: true, Faults: plan}})
		},
		"norec-group-serial": func() Engine {
			return NewNOrecWith(NOrecConfig{EngineOptions: EngineOptions{GroupCommit: true, SerialFallback: true, Faults: plan}, MaxRetries: 6})
		},
	} {
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
							t.Errorf("mid-run sum = %d, want %d (batch not atomic to readers)", sum, total)
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

// TestCoalescedLocksCounted pins the coalescing fast path single-threaded:
// a write set spanning every stripe of a tiny table must form multi-orec
// runs inside 8-stripe group words, be taken with one CAS per run, and be
// counted — while committing the values correctly.
func TestCoalescedLocksCounted(t *testing.T) {
	eng := NewTL2With(TL2Config{EngineOptions: opts("striped=16,coalesce")})
	const vars = 64
	cells := make([]*Cell[int], vars)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), 0)
	}
	if err := eng.Atomic(func(tx Tx) error {
		for i, c := range cells {
			c.Set(tx, i+1)
		}
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	eng.Atomic(func(tx Tx) error {
		for i, c := range cells {
			if got := c.Get(tx); got != i+1 {
				t.Errorf("cell %d = %d, want %d", i, got, i+1)
			}
		}
		return nil
	})
	s := eng.Stats()
	// 64 Vars hash onto 16 stripes = 2 group words; an uncontended commit
	// locking most of the table must coalesce nearly every acquisition.
	if s.CoalescedLocks < 8 {
		t.Errorf("CoalescedLocks = %d, want >= 8 (runs over a 16-stripe table)", s.CoalescedLocks)
	}
}

// TestCoalescingMatchesPerOrec runs the same seeded single-threaded
// workload on a coalescing and a classic striped engine and requires
// identical committed state — coalescing is a locking strategy, never a
// semantics change.
func TestCoalescingMatchesPerOrec(t *testing.T) {
	run := func(coalesce bool) []int {
		eng := NewTL2With(TL2Config{EngineOptions: EngineOptions{Granularity: StripedGranularity, OrecStripes: 16, LockCoalescing: coalesce}})
		const vars = 32
		cells := make([]*Cell[int], vars)
		for i := range cells {
			cells[i] = NewCell(eng.VarSpace(), 0)
		}
		x := uint64(99)
		next := func(n int) int {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return int(x % uint64(n))
		}
		for i := 0; i < 500; i++ {
			a, b := next(vars), next(vars)
			if err := eng.Atomic(func(tx Tx) error {
				cells[a].Update(tx, func(v int) int { return v + 1 })
				cells[b].Update(tx, func(v int) int { return v - 1 })
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
		}
		out := make([]int, vars)
		eng.Atomic(func(tx Tx) error {
			for i, c := range cells {
				out[i] = c.Get(tx)
			}
			return nil
		})
		return out
	}
	classic, coalesced := run(false), run(true)
	for i := range classic {
		if classic[i] != coalesced[i] {
			t.Fatalf("cell %d: classic %d != coalesced %d", i, classic[i], coalesced[i])
		}
	}
}
