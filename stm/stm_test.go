package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// engines returns a fresh instance of every transactional configuration
// under test, keyed by a descriptive name.
func engines() map[string]Engine {
	m := map[string]Engine{"direct": NewDirect()}
	for name, mk := range txEngineMakers {
		m[name] = mk()
	}
	return m
}

// mustSpec parses an engine spec a test spells as a literal.
func mustSpec(spec string) EngineSpec {
	s, err := ParseEngineSpec(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// opts parses a spec's option list alone, for tests that call an engine's
// constructor directly.
func opts(list string) EngineOptions { return mustSpec("x:" + list).Options }

// fromSpec is a maker that builds the spec literal's engine through the
// parser and the registry.
func fromSpec(spec string) func() Engine {
	return func() Engine {
		s := mustSpec(spec)
		e, err := NewWith(s.Name, s.Options)
		if err != nil {
			panic(err)
		}
		return e
	}
}

// txEngineMakers builds fresh transactional engines by configuration name;
// the semantics, stress and property suites iterate all of them. The base
// set is every registered engine except the non-transactional direct one —
// a newly registered engine is pulled into every suite automatically —
// plus named non-default configurations worth exercising. Whatever a spec
// can express is spelled as one and built through the parser, so every
// suite run exercises ParseEngineSpec too; Go literals remain only for
// the test contention managers below.
var txEngineMakers = map[string]func() Engine{
	"ostm-committime":   fromSpec("ostm:ctv"),
	"ostm-timid":        fromSpec("ostm:cm=timid"),
	"ostm-visible":      fromSpec("ostm:visible"),
	"ostm-commitserial": fromSpec("ostm:commitcounter"),

	// OSTM's acquire loop under the two decision sequences no shipped
	// manager produces: kill the owner at once, and wait, then give up.
	"ostm-aggressive": func() Engine { return NewOSTM(EngineOptions{CM: aggressiveCM{}}) },
	"ostm-backoff":    func() Engine { return NewOSTM(EngineOptions{CM: backoffCM{}}) },

	// Multi-version variants: the version-chain depth iterates through the
	// same suites like engines do (K=1 is the base registry entry). Only
	// NOrec keeps versions; TL2 takes versions=K and ignores it, which
	// TestTL2IgnoresVersions checks.
	"norec-mv2": fromSpec("norec:versions=2"),
	"norec-mv8": fromSpec("norec:versions=8"),

	// Lock-hold stall variant: one TL2 committer in 64 spins while it
	// holds its write locks, so readers and writers meet a locked orec far
	// more often than in the plain rows. A held lock must cost retries,
	// never correctness. The row keeps the name of the 16-stripe row it
	// replaces, which gave the same stress by making unrelated Vars
	// collide on one orec, so the suites' test ids carry over.
	"tl2-striped": fromSpec("tl2:faults=" + lockStall),
}

// aggressiveCM kills a live owner on every conflict.
type aggressiveCM struct{}

func (aggressiveCM) Name() string                           { return "aggressive" }
func (aggressiveCM) OnConflict(_, _ TxInfo, _ int) Decision { return AbortEnemy }
func (aggressiveCM) WaitDuration(TxInfo, int) time.Duration { return 0 }

// backoffCM waits out a conflict with growing backoff eight times, then
// aborts itself.
type backoffCM struct{}

func (backoffCM) Name() string { return "backoff" }

func (backoffCM) OnConflict(_, _ TxInfo, attempt int) Decision {
	if attempt < 8 {
		return Wait
	}
	return AbortSelf
}

func (backoffCM) WaitDuration(me TxInfo, attempt int) time.Duration {
	return backoffDur(attempt, me.Opens()+uint64(attempt)<<32)
}

// lockStall is a fault plan that stalls one committer in 64 for 4µs while
// it holds its write locks. The stall stays under spinOnlyMax, so the
// committer spins rather than yields: on one P a yielding lock holder hands
// the processor to exactly the transactions that then find its locks held.
// A harsher plan (one in eight for 20µs) keeps two tight-looping writers'
// locks held most of the time, and a K=1 snapshot reader racing them then
// spends milliseconds per read in its fallback's backoff.
const lockStall = "seed=5,lockhold:1/64:4µs"

// init adds every registered engine (except the non-transactional direct
// one) under its registry name.
func init() {
	for _, name := range Registered() {
		if name == "direct" {
			continue
		}
		txEngineMakers[name] = fromSpec(name)
	}
}

// txEngines is engines() minus direct (for tests that need rollback or
// conflict detection).
func txEngines() map[string]Engine {
	m := engines()
	delete(m, "direct")
	return m
}

func TestReadInitialValue(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 42)
			err := eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got != 42 {
					t.Errorf("initial value = %d, want 42", got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Atomic: %v", err)
			}
		})
	}
}

func TestWriteThenReadWithinTx(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 1)
			err := eng.Atomic(func(tx Tx) error {
				c.Set(tx, 7)
				if got := c.Get(tx); got != 7 {
					t.Errorf("read-your-write = %d, want 7", got)
				}
				c.Set(tx, 9)
				if got := c.Get(tx); got != 9 {
					t.Errorf("second read-your-write = %d, want 9", got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Atomic: %v", err)
			}
		})
	}
}

func TestCommitVisibility(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), "a")
			if err := eng.Atomic(func(tx Tx) error { c.Set(tx, "b"); return nil }); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			var got string
			if err := eng.Atomic(func(tx Tx) error { got = c.Get(tx); return nil }); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if got != "b" {
				t.Errorf("after commit = %q, want %q", got, "b")
			}
		})
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	boom := errors.New("boom")
	for name, eng := range txEngines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 10)
			d := NewCell(eng.VarSpace(), 20)
			err := eng.Atomic(func(tx Tx) error {
				c.Set(tx, 11)
				d.Update(tx, func(v int) int { return v + 1 })
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("Atomic returned %v, want boom", err)
			}
			eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got != 10 {
					t.Errorf("c = %d after aborted tx, want 10", got)
				}
				if got := d.Get(tx); got != 20 {
					t.Errorf("d = %d after aborted tx, want 20", got)
				}
				return nil
			})
			if s := eng.Stats(); s.UserAborts != 1 {
				t.Errorf("UserAborts = %d, want 1", s.UserAborts)
			}
		})
	}
}

func TestDirectDoesNotRollBack(t *testing.T) {
	// Documented behaviour: the pass-through engine cannot undo writes.
	eng := NewDirect()
	c := NewCell(eng.VarSpace(), 1)
	boom := errors.New("boom")
	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 2); return boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 2 {
			t.Errorf("direct engine rolled back: c = %d, want 2", got)
		}
		return nil
	})
}

func TestUpdateClonesUnderTransactionalEngines(t *testing.T) {
	for name, eng := range txEngines() {
		t.Run(name, func(t *testing.T) {
			initial := []int{1, 2, 3}
			c := NewCellClone(eng.VarSpace(), initial, CloneSlice[int])
			err := eng.Atomic(func(tx Tx) error {
				c.Update(tx, func(s []int) []int {
					s[0] = 99 // mutation must hit a private clone
					return append(s, 4)
				})
				return nil
			})
			if err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if initial[0] != 1 {
				t.Errorf("original slice mutated: %v", initial)
			}
			eng.Atomic(func(tx Tx) error {
				got := c.Get(tx)
				if len(got) != 4 || got[0] != 99 || got[3] != 4 {
					t.Errorf("committed value = %v, want [99 2 3 4]", got)
				}
				return nil
			})
		})
	}
}

func TestUpdateAbortDiscardsClone(t *testing.T) {
	boom := errors.New("boom")
	for name, eng := range txEngines() {
		t.Run(name, func(t *testing.T) {
			c := NewCellClone(eng.VarSpace(), []int{5}, CloneSlice[int])
			err := eng.Atomic(func(tx Tx) error {
				c.Update(tx, func(s []int) []int { s[0] = -1; return s })
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("want boom, got %v", err)
			}
			eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got[0] != 5 {
					t.Errorf("aborted update leaked: %v", got)
				}
				return nil
			})
		})
	}
}

func TestDirectUpdateMutatesInPlace(t *testing.T) {
	eng := NewDirect()
	orig := []int{1, 2, 3}
	c := NewCellClone(eng.VarSpace(), orig, CloneSlice[int])
	eng.Atomic(func(tx Tx) error {
		c.Update(tx, func(s []int) []int { s[0] = 42; return s })
		return nil
	})
	if orig[0] != 42 {
		t.Errorf("direct Update should mutate in place; orig = %v", orig)
	}
}

// TestDirectUpdateKeepsBoxForSameValue: a callback that returns the value it
// was given leaves the Var's box alone, anything else is published in a new
// one — including non-comparable values, on which == would panic.
func TestDirectUpdateKeepsBoxForSameValue(t *testing.T) {
	eng := NewDirect()
	p := &struct{ n int }{1}
	for _, init := range []any{p, []int{1}, 7} {
		v := NewCell[any](eng.VarSpace(), nil).Var()
		eng.Atomic(func(tx Tx) error { tx.Write(v, init); return nil })
		eng.Atomic(func(tx Tx) error {
			before := v.cur.Load()
			tx.Update(v, func(val any) any { return val })
			if v.cur.Load() != before {
				t.Errorf("%T: same value was re-boxed", init)
			}
			tx.Update(v, func(any) any { return []int{2} })
			if v.cur.Load() == before {
				t.Errorf("%T: new value was not stored", init)
			}
			return nil
		})
	}
	q := &struct{ n int }{1}
	v := NewCell[any](eng.VarSpace(), nil).Var()
	eng.Atomic(func(tx Tx) error { tx.Write(v, p); return nil })
	eng.Atomic(func(tx Tx) error {
		tx.Update(v, func(any) any { return q }) // equal pointee, other pointer
		if got := tx.Read(v); got != any(q) {
			t.Errorf("Read = %p, want the stored pointer %p", got, q)
		}
		return nil
	})
}

func TestRepeatedUpdateClonesOnce(t *testing.T) {
	for name, eng := range txEngines() {
		t.Run(name, func(t *testing.T) {
			c := NewCellClone(eng.VarSpace(), []int{0}, CloneSlice[int])
			eng.Atomic(func(tx Tx) error {
				for i := 0; i < 5; i++ {
					c.Update(tx, func(s []int) []int { s[0]++; return s })
				}
				return nil
			})
			if got := eng.Stats().Clones; got != 1 {
				t.Errorf("Clones = %d, want 1 (clone-on-first-update)", got)
			}
			eng.Atomic(func(tx Tx) error {
				if got := c.Get(tx); got[0] != 5 {
					t.Errorf("value = %v, want [5]", got)
				}
				return nil
			})
		})
	}
}

func TestMultipleCellsOneTx(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			cells := make([]*Cell[int], 20)
			for i := range cells {
				cells[i] = NewCell(eng.VarSpace(), i)
			}
			eng.Atomic(func(tx Tx) error {
				for _, c := range cells {
					c.Update(tx, func(v int) int { return v * 2 })
				}
				return nil
			})
			eng.Atomic(func(tx Tx) error {
				for i, c := range cells {
					if got := c.Get(tx); got != i*2 {
						t.Errorf("cell %d = %d, want %d", i, got, i*2)
					}
				}
				return nil
			})
		})
	}
}

func TestNonConflictPanicPropagates(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "user panic" {
					t.Errorf("recovered %v, want user panic", r)
				}
			}()
			eng.Atomic(func(tx Tx) error { panic("user panic") })
		})
	}
}

func TestOSTMRetryBudgetExhaustion(t *testing.T) {
	// A Timid transaction that conflicts with a parked writer must give up
	// after MaxRetries and return ErrAborted.
	eng := NewOSTM(opts("cm=timid,retries=3"))
	c := NewCell(eng.VarSpace(), 0)

	hold := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			c.Set(tx, 1) // acquire ownership
			once.Do(func() { close(parked) })
			<-hold // park while owning the var
			return nil
		})
	}()
	<-parked

	err := eng.Atomic(func(tx Tx) error {
		c.Set(tx, 2)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Errorf("blocked writer returned %v, want ErrAborted", err)
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatalf("parked writer failed: %v", err)
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 1 {
			t.Errorf("final value = %d, want 1", got)
		}
		return nil
	})
}

func TestOSTMEnemyAbort(t *testing.T) {
	// A transaction whose manager says AbortEnemy must kill a parked
	// owner and proceed.
	eng := NewOSTM(EngineOptions{CM: aggressiveCM{}})
	c := NewCell(eng.VarSpace(), 0)

	hold := make(chan struct{})
	parked := make(chan struct{})
	var parkOnce sync.Once
	victimDone := make(chan error, 1)
	attempts := 0
	go func() {
		victimDone <- eng.Atomic(func(tx Tx) error {
			attempts++
			c.Update(tx, func(v int) int { return v + 10 })
			parkOnce.Do(func() { close(parked) })
			if attempts == 1 {
				<-hold // park only on the first attempt
			}
			return nil
		})
	}()
	<-parked

	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 1); return nil }); err != nil {
		t.Fatalf("aggressor failed: %v", err)
	}
	close(hold)
	if err := <-victimDone; err != nil {
		t.Fatalf("victim eventually failed: %v", err)
	}
	// Victim retried after the aggressor's commit, so its +10 lands on 1.
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 11 {
			t.Errorf("final value = %d, want 11", got)
		}
		return nil
	})
	if s := eng.Stats(); s.EnemyAborts == 0 {
		t.Error("expected at least one enemy abort")
	}
}

func TestTL2ConflictForcesRetry(t *testing.T) {
	eng := NewTL2(EngineOptions{})
	c := NewCell(eng.VarSpace(), 0)

	firstRead := make(chan struct{})
	proceed := make(chan struct{})
	var onceRead, onceWait sync.Once
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- eng.Atomic(func(tx Tx) error {
			attempts++
			v := c.Get(tx)
			onceRead.Do(func() { close(firstRead) })
			onceWait.Do(func() { <-proceed })
			c.Set(tx, v+1)
			return nil
		})
	}()
	<-firstRead
	// Invalidate the reader's snapshot.
	if err := eng.Atomic(func(tx Tx) error { c.Set(tx, 100); return nil }); err != nil {
		t.Fatalf("invalidator: %v", err)
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatalf("reader-writer: %v", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (commit validation must fail once)", attempts)
	}
	eng.Atomic(func(tx Tx) error {
		if got := c.Get(tx); got != 101 {
			t.Errorf("final = %d, want 101 (increment applied to fresh read)", got)
		}
		return nil
	})
}

func TestStatsCounters(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			c := NewCell(eng.VarSpace(), 0)
			for i := 0; i < 5; i++ {
				eng.Atomic(func(tx Tx) error {
					c.Get(tx)
					c.Set(tx, i)
					return nil
				})
			}
			s := eng.Stats()
			if s.Commits != 5 {
				t.Errorf("Commits = %d, want 5", s.Commits)
			}
			if s.Reads < 5 || s.Writes < 5 {
				t.Errorf("Reads/Writes = %d/%d, want >= 5 each", s.Reads, s.Writes)
			}
			if s.Attempts() < 5 {
				t.Errorf("Attempts = %d, want >= 5", s.Attempts())
			}
		})
	}
}

func TestVarString(t *testing.T) {
	s := NewVarSpace()
	v := NewCell(s, 1).Var()
	if v.String() == "" || v.ID() == 0 {
		t.Errorf("Var id/string not populated: %q %d", v.String(), v.ID())
	}
	if want := fmt.Sprintf("Var(%d)", v.ID()); v.String() != want {
		t.Errorf("String = %q, want %q", v.String(), want)
	}
}

func TestVarIDsUnique(t *testing.T) {
	s := NewVarSpace()
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := NewCell(s, i).Var()
		if seen[v.ID()] {
			t.Fatalf("duplicate Var id %d", v.ID())
		}
		seen[v.ID()] = true
	}
}

func TestAbortRateMath(t *testing.T) {
	s := Stats{Commits: 6, ConflictAborts: 2, UserAborts: 2}
	if got := s.Attempts(); got != 10 {
		t.Errorf("Attempts = %d, want 10", got)
	}
	if got := s.AbortRate(); got != 0.2 {
		t.Errorf("AbortRate = %v, want 0.2", got)
	}
	if got := (Stats{}).AbortRate(); got != 0 {
		t.Errorf("zero-stats AbortRate = %v, want 0", got)
	}
}

func TestCloneHelpers(t *testing.T) {
	s := []int{1, 2}
	cs := CloneSlice(s)
	cs[0] = 9
	if s[0] != 1 {
		t.Error("CloneSlice aliases original")
	}
	if CloneSlice[int](nil) != nil {
		t.Error("CloneSlice(nil) != nil")
	}
	m := map[string]int{"a": 1}
	cm := CloneMap(m)
	cm["a"] = 9
	if m["a"] != 1 {
		t.Error("CloneMap aliases original")
	}
	if CloneMap[string, int](nil) != nil {
		t.Error("CloneMap(nil) != nil")
	}
}
