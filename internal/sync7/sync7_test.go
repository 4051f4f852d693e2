package sync7

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/stm"
)

func TestNewStrategies(t *testing.T) {
	for _, name := range Strategies() {
		ex, err := New(Config{Strategy: name, NumAssmLevels: 5})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if ex.Name() != name {
			t.Errorf("Name = %q, want %q", ex.Name(), name)
		}
		if ex.Engine() == nil {
			t.Errorf("%s: nil engine", name)
		}
	}
	if _, err := New(Config{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(Config{Strategy: "medium", NumAssmLevels: 1}); err == nil {
		t.Error("medium with 1 level accepted")
	}
}

// TestReadOnlySnapshotDispatch: STM executors route ReadOnly operations
// through the engine's snapshot mode by default (SnapshotTxs counts them),
// update operations stay on the Atomic path, and the nosnap spec key
// restores the plain path for everything.
func TestReadOnlySnapshotDispatch(t *testing.T) {
	t1, ok := ops.ByName("T1") // ReadOnly
	if !ok {
		t.Fatal("missing T1")
	}
	st6, ok := ops.ByName("ST6") // update op
	if !ok {
		t.Fatal("missing ST6")
	}
	for _, name := range STMStrategies() {
		for _, disable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disable=%v", name, disable), func(t *testing.T) {
				g := name
				if disable {
					g += ":nosnap"
				}
				spec, err := stm.ParseEngineSpec(g)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := New(Config{Strategy: spec.Name, Engine: spec.Options})
				if err != nil {
					t.Fatal(err)
				}
				s, err := core.Build(core.Tiny(), 42, ex.Engine().VarSpace())
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(7)
				if _, err := ex.Execute(t1, s, r); err != nil {
					t.Fatalf("T1: %v", err)
				}
				snaps := ex.Engine().Stats().SnapshotTxs
				if disable && snaps != 0 {
					t.Errorf("SnapshotTxs = %d under nosnap, want 0", snaps)
				}
				if !disable && snaps != 1 {
					t.Errorf("SnapshotTxs = %d for a ReadOnly op, want 1", snaps)
				}
				// An update op never takes the snapshot path.
				for seed := uint64(0); seed < 20; seed++ {
					if _, err := ex.Execute(st6, s, rng.New(seed)); err == nil {
						break
					}
				}
				if got := ex.Engine().Stats().SnapshotTxs; got != snaps {
					t.Errorf("SnapshotTxs moved %d -> %d on an update op", snaps, got)
				}
			})
		}
	}
}

func TestRegistryKinds(t *testing.T) {
	want := map[string]Kind{
		"direct": KindDirect,
		"coarse": KindLock,
		"medium": KindLock,
		"ostm":   KindSTM,
		"tl2":    KindSTM,
		"norec":  KindSTM,
	}
	for name, kind := range want {
		found := false
		for _, n := range StrategiesOfKind(kind) {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from StrategiesOfKind(%v) = %v", name, kind, StrategiesOfKind(kind))
		}
	}
	// Every stm-registered engine must be selectable as a strategy.
	for _, name := range stm.Registered() {
		if _, ok := lookup(name); !ok {
			t.Errorf("stm engine %q has no sync7 strategy", name)
		}
	}
}

func TestLockSetsCompleteForNonSMOps(t *testing.T) {
	for _, op := range ops.All() {
		_, ok := LockSetFor(op.Name)
		if op.Category == ops.StructureModification {
			if ok {
				t.Errorf("%s: SM op should have no lock set (structure lock covers it)", op.Name)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: missing lock set", op.Name)
		}
	}
}

func TestReadOnlyOpsHaveReadOnlyLockSets(t *testing.T) {
	for _, op := range ops.All() {
		ls, ok := LockSetFor(op.Name)
		if !ok {
			continue
		}
		hasWrite := ls.Manual == Write || ls.Docs == Write || ls.Atomic == Write ||
			ls.Comp == Write || ls.Level1 == Write || ls.ComplexLevels == Write
		if op.ReadOnly && hasWrite {
			t.Errorf("%s: read-only op has a write lock", op.Name)
		}
		if !op.ReadOnly && !hasWrite {
			t.Errorf("%s: update op has no write lock", op.Name)
		}
	}
}

// checkingTx asserts that every Var access is covered by the operation's
// declared lock set, using the domain tags the core package puts on Vars.
type checkingTx struct {
	inner stm.Tx
	t     *testing.T
	op    string
	ls    LockSet
	sm    bool
}

func (c *checkingTx) grant(v *stm.Var, need Mode) {
	if c.sm {
		return // SM operations hold the structure lock exclusively
	}
	var have Mode
	switch core.Domain(v.Tag()) {
	case core.DomainAtomic:
		have = c.ls.Atomic
	case core.DomainComposite:
		have = c.ls.Comp
	case core.DomainBase:
		have = c.ls.Level1
	case core.DomainComplex:
		have = c.ls.ComplexLevels
	case core.DomainDocument:
		have = c.ls.Docs
	case core.DomainManual:
		have = c.ls.Manual
	case core.DomainStructureIdx:
		// Non-SM operations hold the structure lock in read mode: index
		// reads are fine, writes are not.
		if need == Write {
			c.t.Errorf("%s: wrote structure-index var %s while holding only the read lock", c.op, v)
		}
		return
	default:
		c.t.Errorf("%s: access to untagged var %s", c.op, v)
		return
	}
	if have < need {
		c.t.Errorf("%s: %s access to %s but lock mode is %s", c.op, need, v, have)
	}
}

func (c *checkingTx) Read(v *stm.Var) any {
	c.grant(v, Read)
	return c.inner.Read(v)
}

func (c *checkingTx) Write(v *stm.Var, val any) {
	c.grant(v, Write)
	c.inner.Write(v, val)
}

func (c *checkingTx) Update(v *stm.Var, f func(any) any) {
	c.grant(v, Write)
	c.inner.Update(v, f)
}

// TestLockSetsCoverAccesses runs every operation many times with the
// checking transaction and fails on any access outside the declared lock
// set. This is the medium-locking soundness test.
func TestLockSetsCoverAccesses(t *testing.T) {
	eng := stm.NewDirect()
	s, err := core.Build(core.Tiny(), 42, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops.All() {
		ls := lockSets[op.Name]
		sm := op.Category == ops.StructureModification
		for seed := uint64(0); seed < 25; seed++ {
			eng.Atomic(func(tx stm.Tx) error {
				ctx := &checkingTx{inner: tx, t: t, op: op.Name, ls: ls, sm: sm}
				op.Run(ctx, s, rng.New(seed))
				return nil
			})
		}
	}
	// The structure took real SM mutations above; it must still be valid.
	if err := eng.Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
		t.Fatal(err)
	}
}

// TestLockSetsCoverAccessesVariants repeats the lock-coverage check for the
// grouped atomic-part layout: a composite's parts share one Var, which must
// stay inside the same domain locks.
func TestLockSetsCoverAccessesVariants(t *testing.T) {
	variants := map[string]func(p *core.Params){
		"grouped-parts": func(p *core.Params) { p.GroupAtomicParts = true },
	}
	for name, tweak := range variants {
		t.Run(name, func(t *testing.T) {
			p := core.Tiny()
			tweak(&p)
			eng := stm.NewDirect()
			s, err := core.Build(p, 42, eng.VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops.All() {
				ls := lockSets[op.Name]
				sm := op.Category == ops.StructureModification
				for seed := uint64(0); seed < 10; seed++ {
					eng.Atomic(func(tx stm.Tx) error {
						ctx := &checkingTx{inner: tx, t: t, op: op.Name, ls: ls, sm: sm}
						op.Run(ctx, s, rng.New(seed))
						return nil
					})
				}
			}
			if err := eng.Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNumLocksHeld(t *testing.T) {
	m := newMedium(7) // paper's medium structure: 7 levels
	t1, _ := ops.ByName("T1")
	// T1 under the paper's configuration: structure + atomic + comp +
	// 6 complex levels + level 1 = 10 (the paper speaks of 9 locks; it
	// does not count the SM isolation lock).
	if got := m.NumLocksHeld(t1); got != 10 {
		t.Errorf("T1 locks = %d, want 10", got)
	}
	sm1, _ := ops.ByName("SM1")
	if got := m.NumLocksHeld(sm1); got != 1 {
		t.Errorf("SM1 locks = %d, want 1", got)
	}
	op4, _ := ops.ByName("OP4")
	if got := m.NumLocksHeld(op4); got != 2 {
		t.Errorf("OP4 locks = %d, want 2 (structure + manual)", got)
	}
}

// runMixed hammers an executor with a mixed workload from many goroutines
// and returns (successes, failures).
func runMixed(t *testing.T, ex Executor, s *core.Structure, threads, itersPerThread int, profile ops.Profile) (int64, int64) {
	t.Helper()
	var succ, fail int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			picker := ops.NewPicker(profile)
			localS, localF := int64(0), int64(0)
			for i := 0; i < itersPerThread; i++ {
				op := picker.Pick(r)
				_, err := ex.Execute(op, s, r)
				switch {
				case err == nil:
					localS++
				case errors.Is(err, ops.ErrFailed):
					localF++
				default:
					t.Errorf("%s: %v", op.Name, err)
					return
				}
			}
			mu.Lock()
			succ += localS
			fail += localF
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return succ, fail
}

// TestConcurrentInvariantPreservation is the core concurrency test: every
// strategy must preserve all structural invariants under a write-heavy
// mixed workload with structure modifications enabled.
func TestConcurrentInvariantPreservation(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 30
	}
	for _, strat := range append(StrategiesOfKind(KindLock), STMStrategies()...) {
		t.Run(strat, func(t *testing.T) {
			p := core.Tiny()
			ex, err := New(Config{Strategy: strat, NumAssmLevels: p.NumAssmLevels})
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Build(p, 42, ex.Engine().VarSpace())
			if err != nil {
				t.Fatal(err)
			}
			profile := ops.Profile{Workload: ops.WriteDominated, LongTraversals: true, StructureMods: true}
			succ, fail := runMixed(t, ex, s, 8, iters, profile)
			if succ == 0 {
				t.Error("nothing succeeded")
			}
			t.Logf("%s: %d ok, %d failed ops", strat, succ, fail)
			if err := ex.Engine().Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExecutorEquivalenceSingleThread: all strategies produce identical
// results on the same deterministic single-threaded sequence.
func TestExecutorEquivalenceSingleThread(t *testing.T) {
	type res struct {
		vals  []int
		fails []bool
	}
	runSeq := func(strat string) res {
		p := core.Tiny()
		ex, err := New(Config{Strategy: strat, NumAssmLevels: p.NumAssmLevels})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Build(p, 42, ex.Engine().VarSpace())
		if err != nil {
			t.Fatal(err)
		}
		picker := ops.NewPicker(ops.Profile{Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true})
		r := rng.New(31337)
		var out res
		for i := 0; i < 120; i++ {
			op := picker.Pick(r)
			v, err := ex.Execute(op, s, rng.New(r.Uint64()))
			out.vals = append(out.vals, v)
			out.fails = append(out.fails, err != nil)
		}
		return out
	}
	ref := runSeq("direct")
	for _, strat := range append(StrategiesOfKind(KindLock), STMStrategies()...) {
		got := runSeq(strat)
		for i := range ref.vals {
			if got.vals[i] != ref.vals[i] || got.fails[i] != ref.fails[i] {
				t.Fatalf("%s diverges from direct at op %d: (%d,%v) vs (%d,%v)",
					strat, i, got.vals[i], got.fails[i], ref.vals[i], ref.fails[i])
			}
		}
	}
}

// TestMediumLongTraversalWithConcurrentSMs exercises the SM isolation lock:
// long traversals and SM operations interleave without corruption.
func TestMediumLongTraversalWithConcurrentSMs(t *testing.T) {
	p := core.Tiny()
	ex, err := New(Config{Strategy: "medium", NumAssmLevels: p.NumAssmLevels})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(p, 42, ex.Engine().VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := ops.ByName("T1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g))
			smNames := []string{"SM1", "SM2", "SM5", "SM6", "SM7", "SM8"}
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					if _, err := ex.Execute(t1, s, r); err != nil {
						t.Errorf("T1: %v", err)
					}
				} else {
					op, _ := ops.ByName(smNames[r.Intn(len(smNames))])
					if _, err := ex.Execute(op, s, r); err != nil && !errors.Is(err, ops.ErrFailed) {
						t.Errorf("%s: %v", op.Name, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := ex.Engine().Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) }); err != nil {
		t.Fatal(err)
	}
}

// TestSTMExecutorCountsAborts sanity-checks that contention shows up in
// engine stats under STM execution.
func TestSTMExecutorCountsAborts(t *testing.T) {
	for _, strat := range STMStrategies() {
		p := core.Tiny()
		ex, err := New(Config{Strategy: strat, NumAssmLevels: p.NumAssmLevels})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Build(p, 42, ex.Engine().VarSpace())
		if err != nil {
			t.Fatal(err)
		}
		profile := ops.Profile{Workload: ops.WriteDominated, LongTraversals: false, StructureMods: false}
		runMixed(t, ex, s, 8, 100, profile)
		stats := ex.Engine().Stats()
		if stats.Commits == 0 {
			t.Errorf("%s: no commits recorded", strat)
		}
		t.Logf("%s: commits=%d conflicts=%d validations=%d clones=%d",
			strat, stats.Commits, stats.ConflictAborts, stats.Validations, stats.Clones)
	}
}

func TestModeString(t *testing.T) {
	if fmt.Sprintf("%v %v %v", None, Read, Write) != "none read write" {
		t.Error("Mode.String broken")
	}
}

// TestEngineOptionsReachEveryPath: Config.Engine is the one carrier of
// engine configuration, OSTM's knobs included — they reach the plain
// engine through the generic registry path (ostm has no factory of its
// own).
func TestEngineOptionsReachEveryPath(t *testing.T) {
	spec, err := stm.ParseEngineSpec("ostm:cm=timid,visible,nosnap")
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := ops.ByName("T1")
	ex, err := New(Config{Strategy: spec.Name, Engine: spec.Options})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Build(core.Tiny(), 42, ex.Engine().VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(t1, s, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	// Visible reads never validate; the default invisible mode
	// validates on every open.
	if st := ex.Engine().Stats(); st.Reads == 0 || st.Validations != 0 {
		t.Errorf("reads %d, validations %d — visible-reads mode did not reach the engine",
			st.Reads, st.Validations)
	}
	// Out-of-range options are a configuration error on every strategy,
	// including the ones that would ignore them.
	for _, strat := range []string{"coarse", "tl2"} {
		if _, err := New(Config{Strategy: strat, NumAssmLevels: 3, Engine: stm.EngineOptions{MaxRetries: -1}}); err == nil {
			t.Errorf("%s: negative MaxRetries accepted", strat)
		}
	}
}
