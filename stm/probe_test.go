package stm

import "testing"

// siteCounts is a test hook that counts the sites it sees.
type siteCounts [numSites]int

func (c *siteCounts) at(_ *txHead, s site, _, _ uint64) { c[s]++ }

// coreOf returns a transactional engine's core, where its hook maker and
// serial gate live.
func coreOf(t *testing.T, e Engine) *engineCore {
	switch e := e.(type) {
	case *TL2:
		return &e.engineCore
	case *NOrec:
		return &e.engineCore
	case *OSTM:
		return &e.engineCore
	}
	t.Fatalf("%T has no engine core", e)
	return nil
}

// TestProbeSiteCoverage: on every configuration of the conformance matrix,
// one single-threaded run with a write commit, a forced conflict that
// escalates to the serial token, and a snapshot restart fires every site
// of the site table, and no other. OSTM with visible reads never validates:
// a writer aborts its readers instead.
func TestProbeSiteCoverage(t *testing.T) {
	for name, mk := range txEngineMakers {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			c := coreOf(t, eng)
			var seen siteCounts
			c.hook = func() probe { return &seen }
			c.gate, c.maxRetries = &serialGate{}, 1 // a second conflict escalates
			x, y := NewCell(eng.VarSpace(), 0), NewCell(eng.VarSpace(), 0)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// The conflicts: a nested commit overwrites what the attempt read,
			// which it finds out only when it validates (TL2 and NOrec at
			// commit, OSTM at its next open) or when the writer aborts it
			// (visible OSTM). The third attempt runs serially.
			conflicts := 0
			must(eng.Atomic(func(tx Tx) error {
				x.Get(tx)
				if conflicts < 2 {
					conflicts++
					must(eng.Atomic(func(tx Tx) error { x.Set(tx, conflicts); return nil }))
				}
				y.Set(tx, 1)
				return nil
			}))
			restarted := false
			must(RunReadOnly(eng, func(tx Tx) error {
				x.Get(tx)
				if !restarted {
					restarted = true
					must(eng.Atomic(func(tx Tx) error { x.Set(tx, 3); return nil }))
				}
				x.Get(tx)
				return nil
			}))
			for s := range numSites {
				want := !(s == siteValidate && name == "ostm-visible")
				if fired := seen[s] > 0; fired != want {
					t.Errorf("site %d fired %d times, want it to fire: %v (counts %v)", s, seen[s], want, seen)
				}
			}
			if st := eng.Stats(); st.SerialFallbacks != 1 || st.SnapshotRestarts == 0 {
				t.Errorf("serial fallbacks %d, snapshot restarts %d: want 1 and some", st.SerialFallbacks, st.SnapshotRestarts)
			}
		})
	}
}

// TestReadOnlyCommitRecordsNoLock: the locked site belongs to write
// commits, so a read-only Atomic records its begin and commit and no lock
// event on every configuration of the matrix.
func TestReadOnlyCommitRecordsNoLock(t *testing.T) {
	for name, mk := range txEngineMakers {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			rec := NewTraceRecorder(0)
			coreOf(t, eng).hook = func() probe { return rec.tap() }
			c := NewCell(eng.VarSpace(), 1)
			if err := eng.Atomic(func(tx Tx) error { c.Get(tx); return nil }); err != nil {
				t.Fatal(err)
			}
			kinds := traceKindSet(rec.Events())
			if kinds[TraceCommit] != 1 || kinds[TraceLock] != 0 {
				t.Errorf("read-only Atomic recorded %v, want one commit and no lock", kinds)
			}
		})
	}
}
