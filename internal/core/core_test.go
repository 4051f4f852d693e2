package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/stm"
)

// buildTiny builds a Tiny structure on a direct engine and returns both.
func buildTiny(t *testing.T) (*Structure, stm.Engine) {
	t.Helper()
	eng := stm.NewDirect()
	s, err := Build(Tiny(), 42, eng.VarSpace())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, eng
}

func TestParamsPresets(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium"} {
		p, ok := Named(name)
		if !ok {
			t.Fatalf("Named(%q) missing", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := Named("giant"); ok {
		t.Error("Named(giant) should not exist")
	}
}

func TestParamsMediumMatchesPaper(t *testing.T) {
	p := Medium()
	// §2.2: six levels of complex assemblies (7 with base), fan-out 3,
	// 500 composite parts, 100000 atomic parts altogether.
	if p.NumAssmLevels != 7 || p.NumAssmPerAssm != 3 {
		t.Errorf("assembly shape = %d levels fan-out %d", p.NumAssmLevels, p.NumAssmPerAssm)
	}
	if p.NumCompParts != 500 {
		t.Errorf("NumCompParts = %d, want 500", p.NumCompParts)
	}
	if total := p.NumCompParts * p.NumAtomicPerComp; total != 100000 {
		t.Errorf("total atomic parts = %d, want 100000", total)
	}
	if p.InitialComplexAssemblies() != 364 {
		t.Errorf("InitialComplexAssemblies = %d, want 364 (1+3+9+27+81+243)", p.InitialComplexAssemblies())
	}
	if p.InitialBaseAssemblies() != 729 {
		t.Errorf("InitialBaseAssemblies = %d, want 729 (3^6)", p.InitialBaseAssemblies())
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{NumAssmLevels: 1, NumAssmPerAssm: 3, NumCompPerAssm: 1, NumCompParts: 1, NumAtomicPerComp: 1, NumConnPerAtomic: 1, DocumentSize: 10, ManualSize: 10},
		{NumAssmLevels: 3, NumAssmPerAssm: 0, NumCompPerAssm: 1, NumCompParts: 1, NumAtomicPerComp: 1, NumConnPerAtomic: 1, DocumentSize: 10, ManualSize: 10},
		{NumAssmLevels: 3, NumAssmPerAssm: 3, NumCompPerAssm: 1, NumCompParts: 0, NumAtomicPerComp: 1, NumConnPerAtomic: 1, DocumentSize: 10, ManualSize: 10},
		{NumAssmLevels: 3, NumAssmPerAssm: 3, NumCompPerAssm: 1, NumCompParts: 1, NumAtomicPerComp: 1, NumConnPerAtomic: 1, DocumentSize: 1, ManualSize: 10},
		// More atomic-part ids than the id half of a build-date key holds.
		{NumAssmLevels: 3, NumAssmPerAssm: 3, NumCompPerAssm: 1, NumCompParts: 1 << 20, NumAtomicPerComp: 1 << 12, NumConnPerAtomic: 1, DocumentSize: 10, ManualSize: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestBuildCounts(t *testing.T) {
	s, eng := buildTiny(t)
	p := s.P
	eng.Atomic(func(tx stm.Tx) error {
		if got := s.Idx.CompositeByID.Len(tx); got != p.NumCompParts {
			t.Errorf("composite parts = %d, want %d", got, p.NumCompParts)
		}
		if got := s.Idx.AtomicByID.Len(tx); got != p.NumCompParts*p.NumAtomicPerComp {
			t.Errorf("atomic parts = %d, want %d", got, p.NumCompParts*p.NumAtomicPerComp)
		}
		if got := s.Idx.DocumentByTitle.Len(tx); got != p.NumCompParts {
			t.Errorf("documents = %d, want %d", got, p.NumCompParts)
		}
		if got := s.Idx.BaseByID.Len(tx); got != p.InitialBaseAssemblies() {
			t.Errorf("base assemblies = %d, want %d", got, p.InitialBaseAssemblies())
		}
		if got := s.Idx.ComplexByID.Len(tx); got != p.InitialComplexAssemblies() {
			t.Errorf("complex assemblies = %d, want %d", got, p.InitialComplexAssemblies())
		}
		// Every part has its ring edge first, then the extras, one of each
		// connection type in turn.
		s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
			if len(ap.To()) != p.NumConnPerAtomic {
				t.Errorf("atomic %d has %d outgoing connections, want %d", id, len(ap.To()), p.NumConnPerAtomic)
			}
			for k, c := range ap.To() {
				if want := connTypes[k%len(connTypes)]; c.Type() != want || c.From != int32(ap.Slot()) {
					t.Errorf("atomic %d connection %d: type %q from slot %d, want %q from %d", id, k, c.Type(), c.From, want, ap.Slot())
				}
			}
			return true
		})
		return nil
	})
}

func TestBuildDeterministic(t *testing.T) {
	e1, e2 := stm.NewDirect(), stm.NewDirect()
	s1, err := Build(Tiny(), 7, e1.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(Tiny(), 7, e2.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	// Compare a structural fingerprint: every atomic part's state and the
	// components of every base assembly.
	fp := func(s *Structure, eng stm.Engine) []int {
		var out []int
		eng.Atomic(func(tx stm.Tx) error {
			s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
				st := ap.State(tx)
				out = append(out, int(id), st.X, st.Y, st.BuildDate, len(ap.To()))
				return true
			})
			s.Idx.BaseByID.Ascend(tx, func(id uint64, ba *BaseAssembly) bool {
				for _, cp := range ba.State(tx).Components {
					out = append(out, int(id), int(cp.ID))
				}
				return true
			})
			return nil
		})
		return out
	}
	f1, f2 := fp(s1, e1), fp(s2, e2)
	if len(f1) != len(f2) {
		t.Fatalf("fingerprint lengths differ: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fingerprints diverge at %d: %d vs %d", i, f1[i], f2[i])
		}
	}
}

func TestBuildInvariants(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		return nil
	})
}

// TestCheckInvariantsCatchesBrokenConnections breaks one composite part's
// graph in each way CheckInvariants checks for, in both part
// representations, and expects the matching violation. Each break is placed
// so that it is the first thing the checker meets: part 0's outgoing edges
// are checked before its incoming ones, and part 0 before the others.
func TestCheckInvariantsCatchesBrokenConnections(t *testing.T) {
	cases := []struct {
		name, want string
		breakGraph func(cp *CompositePart)
	}{
		{"from-link", "from-link broken", func(cp *CompositePart) { cp.conns[0].From = 1 }},
		{"escape", "escapes composite", func(cp *CompositePart) { cp.conns[1].To = int32(len(cp.Parts)) }},
		{"missing-from-target", "missing from target's From", func(cp *CompositePart) { cp.conns[0].To = 0 }},
		{"to-link", "to-link broken", func(cp *CompositePart) {
			// Part 0's From list names the ring edge into it, from the last
			// part; name connection 0 (0 -> 1) there instead.
			ring := int32((len(cp.Parts) - 1) * cp.outDegree)
			from := cp.Parts[0].From()
			from[slices.Index(from, ring)] = 0
		}},
		{"disconnected", "graph disconnected", func(cp *CompositePart) {
			// Every edge into the last part turns back to its source, and the
			// index is rebuilt to match: a consistent graph the last part is
			// cut off from.
			last := int32(len(cp.Parts) - 1)
			for i := range cp.conns {
				if c := &cp.conns[i]; c.To == last {
					c.To = c.From
				}
			}
			cp.in = incomingIndex(cp.conns, len(cp.Parts))
		}},
		{"out-degree", "connections of out-degree", func(cp *CompositePart) { cp.conns = cp.conns[:len(cp.conns)-1] }},
		{"index-shape", "index is malformed", func(cp *CompositePart) { cp.in = cp.in[:len(cp.in)-1] }},
	}
	for _, grouped := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("grouped=%v/%s", grouped, tc.name), func(t *testing.T) {
				p := Tiny()
				p.GroupAtomicParts = grouped
				eng := stm.NewDirect()
				s, err := Build(p, 42, eng.VarSpace())
				if err != nil {
					t.Fatal(err)
				}
				eng.Atomic(func(tx stm.Tx) error {
					if err := s.CheckInvariants(tx); err != nil {
						t.Fatalf("before the break: %v", err)
					}
					cp, _ := s.LookupComposite(tx, 1)
					tc.breakGraph(cp)
					if err := s.CheckInvariants(tx); err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("CheckInvariants = %v, want an error containing %q", err, tc.want)
					}
					return nil
				})
			})
		}
	}
}

func TestBuildSmallInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("small build in -short mode")
	}
	eng := stm.NewDirect()
	s, err := Build(Small(), 99, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		return nil
	})
}

func TestDocumentText(t *testing.T) {
	txt := DocumentText(17, 300)
	if len(txt) != 300 {
		t.Errorf("len = %d, want 300", len(txt))
	}
	if !strings.HasPrefix(txt, "I am the documentation for composite part #17.") {
		t.Errorf("unexpected prefix: %q", txt[:50])
	}
	if CountChar(txt, 'I') == 0 {
		t.Error("document text contains no 'I'")
	}
}

func TestManualText(t *testing.T) {
	txt := ManualText(1, 500)
	if len(txt) != 500 {
		t.Errorf("len = %d, want 500", len(txt))
	}
	if txt[0] != 'I' {
		t.Errorf("first char = %q, want 'I'", txt[0])
	}
}

func TestSwapIAmRoundTrip(t *testing.T) {
	orig := DocumentText(3, 400)
	swapped, n1 := SwapIAm(orig)
	if n1 == 0 {
		t.Fatal("no replacements on first swap")
	}
	if strings.Contains(swapped, "I am") {
		t.Error("swap left 'I am' behind")
	}
	back, n2 := SwapIAm(swapped)
	if n1 != n2 {
		t.Errorf("asymmetric swap: %d vs %d", n1, n2)
	}
	if back != orig {
		t.Error("swap is not an involution")
	}
}

func TestSwapCase(t *testing.T) {
	s, n := SwapCase("III")
	if s != "iii" || n != 3 {
		t.Errorf("SwapCase(III) = %q,%d", s, n)
	}
	s2, n2 := SwapCase(s)
	if s2 != "III" || n2 != 3 {
		t.Errorf("reverse SwapCase = %q,%d", s2, n2)
	}
	if _, n := SwapCase(""); n != 0 {
		t.Errorf("SwapCase empty = %d changes", n)
	}
}

func TestCountChar(t *testing.T) {
	if got := CountChar("mississippi", 'i'); got != 4 {
		t.Errorf("CountChar = %d, want 4", got)
	}
	if got := CountChar("", 'x'); got != 0 {
		t.Errorf("CountChar empty = %d", got)
	}
}

func TestIDAllocationExhaustion(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		seen := map[uint64]bool{}
		for {
			id, ok := s.AllocCompID(tx)
			if !ok {
				break
			}
			if seen[id] {
				t.Fatalf("duplicate allocated id %d", id)
			}
			seen[id] = true
			if id > s.P.MaxCompParts() {
				t.Fatalf("allocated id %d beyond cap %d", id, s.P.MaxCompParts())
			}
		}
		// Free one and it must come back.
		s.FreeCompID(tx, 3)
		id, ok := s.AllocCompID(tx)
		if !ok || id != 3 {
			t.Errorf("realloc after free = %d,%v; want 3,true", id, ok)
		}
		return nil
	})
}

func TestSetAtomicDateMaintainsIndex(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		cp, _ := s.LookupComposite(tx, 1)
		ap := cp.Parts[0]
		old := ap.BuildDate(tx)
		s.SetAtomicDate(tx, ap, old+1)
		if got := ap.BuildDate(tx); got != old+1 {
			t.Errorf("date = %d, want %d", got, old+1)
		}
		// The old key no longer holds it; the new key does.
		if _, ok := s.Idx.AtomicByDate.Get(tx, DateKey(old, ap.ID)); ok {
			t.Error("old date key still holds part")
		}
		if got, _ := s.Idx.AtomicByDate.Get(tx, DateKey(old+1, ap.ID)); got != ap {
			t.Error("new date key missing part")
		}
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		return nil
	})
}

// TestAtomicPartsByDateMatchesBruteForce checks the streamed composite-key
// range scan against a brute-force pass over every composite part's Parts —
// same parts, same DateKey order (date pair, id, date) — on every engine,
// with both atomic-part layouts, inside Atomic and inside RunReadOnly. The
// ranges are the ones OP2, OP3 and OP10 use, single dates at both ends of the
// key range (the parts on MaxDate sit at the top of the key space, where the
// scan's upper bound is DateKey(MaxDate, 1<<32-1)), and empty ranges. The scan covers whole date
// pairs, and the ops' ranges start on an even date and end on an odd one;
// the ranges with an odd lo or an even hi are the only ones here whose end
// pairs hold parts the scan must skip.
func TestAtomicPartsByDateMatchesBruteForce(t *testing.T) {
	ranges := [][2]int{
		{1990, 1999}, {MinDate, MaxDate}, {MaxDate, MaxDate}, {MinDate, MinDate},
		{1989, 1989}, {MinDate + 1, MaxDate - 1}, {1950, 1949},
		{1991, 1998}, {MinDate + 1, MinDate + 1}, {1989, 1990}, {MinDate + 1, MinDate},
	}
	for _, name := range stm.Registered() {
		for _, grouped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/grouped=%v", name, grouped), func(t *testing.T) {
				eng, err := stm.New(name)
				if err != nil {
					t.Fatal(err)
				}
				p := Tiny()
				p.GroupAtomicParts = grouped
				s, err := Build(p, 42, eng.VarSpace())
				if err != nil {
					t.Fatal(err)
				}
				var all []*AtomicPart
				eng.Atomic(func(tx stm.Tx) error {
					all = all[:0]
					s.Idx.CompositeByID.Ascend(tx, func(_ uint64, cp *CompositePart) bool {
						all = append(all, cp.Parts...)
						return true
					})
					// Pin parts to the edges and to both sides of OP2's
					// lower bound; two parts go on MaxDate.
					for i, d := range []int{MinDate, MinDate, MinDate + 1, 1989, 1990, MaxDate - 1, MaxDate, MaxDate} {
						s.SetAtomicDate(tx, all[i*len(all)/8], d)
					}
					return nil
				})
				check := func(tx stm.Tx) error {
					for _, rg := range ranges {
						lo, hi := rg[0], rg[1]
						var want []*AtomicPart
						for _, p := range all {
							if d := p.BuildDate(tx); d >= lo && d <= hi {
								want = append(want, p)
							}
						}
						slices.SortFunc(want, func(a, b *AtomicPart) int {
							return cmp.Compare(DateKey(a.BuildDate(tx), a.ID), DateKey(b.BuildDate(tx), b.ID))
						})
						var got []*AtomicPart
						s.AtomicPartsByDate(tx, lo, hi, func(p *AtomicPart) bool {
							got = append(got, p)
							return true
						})
						if !slices.Equal(got, want) {
							t.Errorf("[%d, %d]: index scan returned %d parts, brute force %d (or in another order)", lo, hi, len(got), len(want))
						}
						if lo == MaxDate && len(want) < 2 {
							t.Errorf("only %d parts on MaxDate: the edge is not exercised", len(want))
						}
						if lo > hi && len(got) != 0 {
							t.Errorf("[%d, %d]: empty range returned %d parts", lo, hi, len(got))
						}
					}
					return nil
				}
				eng.Atomic(check)
				stm.RunReadOnly(eng, check)
				if err := eng.Atomic(s.CheckInvariants); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestAtomicPartsByDateStopsEarly: fn returning false ends the walk.
func TestAtomicPartsByDateStopsEarly(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		n := 0
		s.AtomicPartsByDate(tx, MinDate, MaxDate, func(*AtomicPart) bool { n++; return n < 3 })
		if n != 3 {
			t.Errorf("visited %d parts after asking to stop at 3", n)
		}
		return nil
	})
}

func TestToggleAtomicDateStaysInRange(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		cp, _ := s.LookupComposite(tx, 2)
		ap := cp.Parts[1]
		for i := 0; i < 10; i++ {
			s.ToggleAtomicDate(tx, ap)
			d := ap.BuildDate(tx)
			if d < MinDate || d > MaxDate {
				t.Fatalf("date %d escaped range", d)
			}
		}
		return s.CheckInvariants(tx)
	})
}

// TestToggleDateStaysInItsPair walks every date in [MinDate, MaxDate]: the
// toggle changes the date, keeps it in range and in its pair {2k, 2k+1},
// undoes itself, and moves a part's build-date key by bit 0 alone, which is
// what lets btree.Map.Move re-key it in place. keyDate inverts DateKey.
func TestToggleDateStaysInItsPair(t *testing.T) {
	for d := MinDate; d <= MaxDate; d++ {
		nd := ToggleDate(d)
		if nd == d || nd < MinDate || nd > MaxDate || nd>>1 != d>>1 {
			t.Fatalf("ToggleDate(%d) = %d: not the other date of its pair", d, nd)
		}
		if back := ToggleDate(nd); back != d {
			t.Fatalf("ToggleDate(ToggleDate(%d)) = %d", d, back)
		}
		for _, id := range []uint64{0, 1, 4711, 1<<dateKeyIDBits - 1} {
			k, nk := DateKey(d, id), DateKey(nd, id)
			if k^nk != 1 {
				t.Fatalf("DateKey(%d, %d) = %#x and DateKey(%d, %d) = %#x differ beyond bit 0", d, id, k, nd, id, nk)
			}
			if got := keyDate(k); got != d {
				t.Fatalf("keyDate(DateKey(%d, %d)) = %d", d, id, got)
			}
		}
	}
}

func TestDeleteCompositePart(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		cp, ok := s.LookupComposite(tx, 1)
		if !ok {
			t.Fatal("composite 1 missing")
		}
		users := len(cp.State(tx).UsedIn)
		_ = users
		s.DeleteCompositePart(tx, cp)
		if _, ok := s.LookupComposite(tx, 1); ok {
			t.Error("composite still indexed")
		}
		if _, ok := s.DocumentByTitle(tx, []byte(cp.Doc.Title)); ok {
			t.Error("document still indexed")
		}
		for _, ap := range cp.Parts {
			if _, ok := s.LookupAtomic(tx, ap.ID); ok {
				t.Errorf("atomic %d still indexed", ap.ID)
			}
		}
		return s.CheckInvariants(tx)
	})
}

func TestCreateAndDeleteCompositeRoundTrip(t *testing.T) {
	s, eng := buildTiny(t)
	r := rng.New(5)
	eng.Atomic(func(tx stm.Tx) error {
		id, ok := s.AllocCompID(tx)
		if !ok {
			t.Fatal("no free composite id")
		}
		cp := s.BuildCompositePart(tx, r, id)
		if err := s.CheckInvariants(tx); err != nil {
			t.Fatalf("after create: %v", err)
		}
		s.DeleteCompositePart(tx, cp)
		if err := s.CheckInvariants(tx); err != nil {
			t.Fatalf("after delete: %v", err)
		}
		return nil
	})
}

func TestLinkUnlinkCompositeBase(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		var ba *BaseAssembly
		s.Idx.BaseByID.Ascend(tx, func(_ uint64, b *BaseAssembly) bool { ba = b; return false })
		cp, _ := s.LookupComposite(tx, 4)
		before := len(ba.State(tx).Components)
		LinkCompositeToBase(tx, ba, cp)
		if got := len(ba.State(tx).Components); got != before+1 {
			t.Errorf("components = %d, want %d", got, before+1)
		}
		if !containsPtr(cp.State(tx).UsedIn, ba) {
			t.Error("usedIn missing")
		}
		UnlinkCompositeFromBase(tx, ba, cp)
		if got := len(ba.State(tx).Components); got != before {
			t.Errorf("components after unlink = %d, want %d", got, before)
		}
		return s.CheckInvariants(tx)
	})
}

func TestBuildAssemblySubtree(t *testing.T) {
	s, eng := buildTiny(t)
	r := rng.New(9)
	eng.Atomic(func(tx stm.Tx) error {
		root := s.Module.DesignRoot
		ok := s.BuildAssemblySubtree(tx, r, root.Lvl-1, root)
		if !ok {
			t.Skip("id pools too small for subtree in tiny preset")
		}
		return s.CheckInvariants(tx)
	})
}

func TestDeleteAssemblySubtree(t *testing.T) {
	s, eng := buildTiny(t)
	eng.Atomic(func(tx stm.Tx) error {
		root := s.Module.DesignRoot
		st := root.State(tx)
		if len(st.SubComplex) < 2 {
			t.Fatal("root needs 2+ children for this test")
		}
		victim := st.SubComplex[0]
		s.DeleteAssemblySubtree(tx, victim)
		if _, ok := s.LookupComplex(tx, victim.ID); ok {
			t.Error("victim still indexed")
		}
		if containsPtr(root.State(tx).SubComplex, victim) {
			t.Error("victim still linked to root")
		}
		return s.CheckInvariants(tx)
	})
}

func TestGroupAtomicParts(t *testing.T) {
	p := Tiny()
	p.GroupAtomicParts = true
	eng := stm.NewDirect()
	s, err := Build(p, 42, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if err := s.CheckInvariants(tx); err != nil {
			t.Error(err)
		}
		cp, _ := s.LookupComposite(tx, 1)
		ap := cp.Parts[2]
		before := ap.State(tx)
		ap.SwapXY(tx)
		after := ap.State(tx)
		if after.X != before.Y || after.Y != before.X {
			t.Errorf("SwapXY: %+v -> %+v", before, after)
		}
		// Neighbour unaffected.
		if cp.Parts[3].State(tx) != cp.Parts[3].State(tx) {
			t.Error("neighbour state unstable")
		}
		return nil
	})
}

func TestGroupedDateIndexMaintenance(t *testing.T) {
	p := Tiny()
	p.GroupAtomicParts = true
	eng := stm.NewDirect()
	s, err := Build(p, 42, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		cp, _ := s.LookupComposite(tx, 1)
		s.ToggleAtomicDate(tx, cp.Parts[0])
		return s.CheckInvariants(tx)
	})
}

// TestManualChunking: the manual is one cell, and at the preset's size it
// reads back whole as ManualText(1, ManualSize).
func TestManualChunking(t *testing.T) {
	p := Tiny()
	eng := stm.NewDirect()
	s, err := Build(p, 1, eng.VarSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng.Atomic(func(tx stm.Tx) error {
		if got := s.Module.Man.Text(tx); got != ManualText(1, p.ManualSize) {
			t.Error("manual text mismatch")
		}
		return nil
	})
}

func TestStructureRandomIDDomains(t *testing.T) {
	s, _ := buildTiny(t)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		if id := s.RandomAtomicID(r); id == 0 || id > s.P.MaxAtomicParts() {
			t.Fatalf("atomic id %d out of domain", id)
		}
		if id := s.RandomCompID(r); id == 0 || id > s.P.MaxCompParts() {
			t.Fatalf("comp id %d out of domain", id)
		}
		if id := s.RandomBaseID(r); id == 0 || id > s.P.MaxBaseAssemblies() {
			t.Fatalf("base id %d out of domain", id)
		}
		if id := s.RandomComplexID(r); id == 0 || id > s.P.MaxComplexAssemblies() {
			t.Fatalf("complex id %d out of domain", id)
		}
		if d := RandomDate(r); d < MinDate || d > MaxDate {
			t.Fatalf("date %d out of range", d)
		}
	}
}

// TestBuildUnderSTMEngines ensures a structure built on an STM engine's
// VarSpace is usable through real transactions.
func TestBuildUnderSTMEngines(t *testing.T) {
	for _, mk := range []func() stm.Engine{
		func() stm.Engine { return stm.NewOSTM(stm.EngineOptions{}) },
		func() stm.Engine { return stm.NewTL2(stm.EngineOptions{}) },
	} {
		eng := mk()
		s, err := Build(Tiny(), 42, eng.VarSpace())
		if err != nil {
			t.Fatal(err)
		}
		err = eng.Atomic(func(tx stm.Tx) error {
			return s.CheckInvariants(tx)
		})
		if err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
		// A mutation through the STM engine.
		err = eng.Atomic(func(tx stm.Tx) error {
			cp, _ := s.LookupComposite(tx, 1)
			s.ToggleAtomicDate(tx, cp.Parts[0])
			return nil
		})
		if err != nil {
			t.Errorf("%s mutation: %v", eng.Name(), err)
		}
		err = eng.Atomic(func(tx stm.Tx) error { return s.CheckInvariants(tx) })
		if err != nil {
			t.Errorf("%s after mutation: %v", eng.Name(), err)
		}
	}
}

// buildCompositePartReference is the builder BuildCompositePart replaced:
// one heap object per atomic part, connections appended one at
// a time and From lists grown by append, packed into the graph's two slabs
// only at the end. It is kept as the oracle for the slab builder, which must
// build the same structure from the same draws.
func (s *Structure) buildCompositePartReference(tx stm.Tx, r *rng.Rand, id uint64) *CompositePart {
	p := s.P
	cp := &CompositePart{ID: id}
	cp.Doc = &Document{
		ID:    id,
		Title: fmt.Sprintf("Documentation for composite part #%d", id),
		Part:  cp,
	}
	cp.Doc.text = named(stm.NewCell(s.Space, DocumentText(id, p.DocumentSize)), DomainDocument)
	cp.state = named(stm.NewCellClone(s.Space, CompositePartState{BuildDate: RandomDate(r)},
		func(st CompositePartState) CompositePartState {
			st.UsedIn = stm.CloneSlice(st.UsedIn)
			return st
		}), DomainComposite)

	n := p.NumAtomicPerComp
	parts := make([]*AtomicPart, n)
	states := make([]AtomicPartState, n)
	baseID := (id-1)*uint64(n) + 1
	for i := 0; i < n; i++ {
		states[i] = AtomicPartState{
			X:         r.Intn(1 << 16),
			Y:         r.Intn(1 << 16),
			BuildDate: RandomDate(r),
		}
		parts[i] = &AtomicPart{ID: baseID + uint64(i), PartOf: cp, slot: i, grouped: p.GroupAtomicParts}
	}
	if p.GroupAtomicParts {
		cp.groupStates = named(stm.NewCellClone(s.Space, states, stm.CloneSlice[AtomicPartState]), DomainAtomic)
	} else {
		for i, ap := range parts {
			stm.InitCell(s.Space, &ap.state, states[i])
			named(&ap.state, DomainAtomic)
		}
	}
	var conns []Connection
	from := make([][]int32, n)
	for i := range parts {
		addConn := func(to, kind int) {
			from[to] = append(from[to], int32(len(conns)))
			conns = append(conns, Connection{
				Length: int32(1 + r.Intn(100)),
				From:   int32(i),
				To:     int32(to),
				kind:   uint8(kind % len(connTypes)),
			})
		}
		addConn((i+1)%n, 0)
		for k := 1; k < p.NumConnPerAtomic; k++ {
			addConn(r.Intn(n), k)
		}
	}
	in := make([]int32, n+1)
	for i, f := range from {
		in[i] = int32(len(in))
		in = append(in, f...)
	}
	in[n] = int32(len(in))
	cp.conns, cp.in, cp.outDegree = conns, in, p.NumConnPerAtomic
	cp.RootPart = parts[0]
	cp.Parts = parts

	s.Idx.CompositeByID.Put(tx, id, cp)
	s.Idx.DocumentByTitle.Put(tx, cp.Doc.Title, cp.Doc)
	for i, ap := range parts {
		s.Idx.AtomicByID.Put(tx, ap.ID, ap)
		s.Idx.AtomicByDate.Put(tx, DateKey(states[i].BuildDate, ap.ID), ap)
	}
	return cp
}

// describeDesignLibrary writes out everything the builders decide: per
// composite part its document and state, per atomic part its state and its To
// and From lists in order, then the four indexes a composite part registers
// in, entry by entry.
func describeDesignLibrary(tx stm.Tx, s *Structure, cps []*CompositePart) string {
	var b strings.Builder
	edge := func(cp *CompositePart, c Connection) {
		fmt.Fprintf(&b, " %d->%d/%d/%s", cp.Parts[c.From].ID, cp.Parts[c.To].ID, c.Length, c.Type())
	}
	for _, cp := range cps {
		fmt.Fprintf(&b, "cp %d date=%d root=%d doc=%d/%q/%q back=%v\n", cp.ID, cp.BuildDate(tx), cp.RootPart.ID,
			cp.Doc.ID, cp.Doc.Title, cp.Doc.Text(tx), cp.Doc.Part == cp)
		for i, ap := range cp.Parts {
			fmt.Fprintf(&b, " part %d of=%d state=%+v slot=%d grouped=%v\n", ap.ID, ap.PartOf.ID, ap.State(tx), ap.slot, ap.grouped)
			if ap.PartOf != cp || ap.slot != i {
				fmt.Fprintf(&b, "  MISLINKED\n")
			}
			b.WriteString("  to")
			for _, c := range ap.To() {
				edge(cp, c)
			}
			b.WriteString("\n  from")
			for _, ci := range ap.From() {
				edge(cp, cp.Conns()[ci])
			}
			b.WriteByte('\n')
		}
	}
	s.Idx.CompositeByID.Ascend(tx, func(id uint64, cp *CompositePart) bool {
		fmt.Fprintf(&b, "idx comp %d -> %d\n", id, cp.ID)
		return true
	})
	s.Idx.DocumentByTitle.Ascend(tx, func(title string, d *Document) bool {
		fmt.Fprintf(&b, "idx title %q -> %d\n", title, d.ID)
		return true
	})
	s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
		fmt.Fprintf(&b, "idx atomic %d -> %d\n", id, ap.ID)
		return true
	})
	s.Idx.AtomicByDate.Ascend(tx, func(key uint64, ap *AtomicPart) bool {
		fmt.Fprintf(&b, "idx date %d/%d -> %d\n", keyDate(key), key>>1&(1<<dateKeyIDBits-1), ap.ID)
		return true
	})
	return b.String()
}

// firstDifference names the first line at which two descriptions part, or
// returns "" if they are the same.
func firstDifference(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got:  %s\n want: %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestBuildCompositePartMatchesReference holds the slab builder to the
// builder it replaced: the same seed gives the same parts, states,
// connections in the same To and From order, documents and index contents,
// and leaves the generator where the reference leaves it — so every seeded
// structure and operation stream is the one it was.
func TestBuildCompositePartMatchesReference(t *testing.T) {
	type builder func(*Structure, stm.Tx, *rng.Rand, uint64) *CompositePart
	build := func(p Params, seed uint64, f builder) (string, uint64) {
		eng := stm.NewDirect()
		s := newStructure(p, eng.VarSpace())
		r := rng.New(seed)
		var desc string
		eng.Atomic(func(tx stm.Tx) error {
			var cps []*CompositePart
			for _, id := range []uint64{1, 2, 7} { // ids need not be dense
				cps = append(cps, f(s, tx, r, id))
			}
			desc = describeDesignLibrary(tx, s, cps)
			return nil
		})
		return desc, r.Uint64()
	}
	for _, size := range []string{"tiny", "small"} {
		for _, variant := range []string{"plain", "grouped"} {
			for _, seed := range []uint64{1, 42, 20071} {
				p, _ := Named(size)
				p.GroupAtomicParts = variant == "grouped"
				got, gotNext := build(p, seed, (*Structure).BuildCompositePart)
				want, wantNext := build(p, seed, (*Structure).buildCompositePartReference)
				if d := firstDifference(got, want); d != "" {
					t.Errorf("%s/%s/seed %d: slab builder against reference: %s", size, variant, seed, d)
				}
				if gotNext != wantNext {
					t.Errorf("%s/%s/seed %d: the generator's next draw differs: the builders drew differently", size, variant, seed)
				}
			}
		}
	}
}

// setAtomicDateOracle and toggleAtomicDateOracle are the indexed update as it
// was before Index.Move: read the date, read it again, open the part, then a
// Delete and a Put on the index. They are kept as the oracle for the one-open
// path, which must leave every part and the index exactly as these do.
func (s *Structure) setAtomicDateOracle(tx stm.Tx, p *AtomicPart, newDate int) {
	old := p.BuildDate(tx)
	if old == newDate {
		return
	}
	p.Mutate(tx, func(st *AtomicPartState) { st.BuildDate = newDate })
	s.Idx.AtomicByDate.Delete(tx, DateKey(old, p.ID))
	s.Idx.AtomicByDate.Put(tx, DateKey(newDate, p.ID), p)
}

func (s *Structure) toggleAtomicDateOracle(tx stm.Tx, p *AtomicPart) {
	old := p.BuildDate(tx)
	nd := old + 1
	if old%2 != 0 || nd > MaxDate {
		nd = old - 1
	}
	if nd < MinDate {
		nd = old + 1
	}
	s.setAtomicDateOracle(tx, p, nd)
}

// TestIndexedUpdateMatchesOracle toggles every part of two structures built
// from one seed one to four times — one structure by the oracle, one by
// ToggleAtomicDate — and sets every seventh part's date outright, on every
// engine and in both representations of the parts. Both must end with the
// same dates and the same build-date index.
func TestIndexedUpdateMatchesOracle(t *testing.T) {
	type updater struct {
		toggle func(*Structure, stm.Tx, *AtomicPart)
		set    func(*Structure, stm.Tx, *AtomicPart, int)
	}
	run := func(t *testing.T, engine string, p Params, u updater) string {
		eng, err := stm.New(engine)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Build(p, 42, eng.VarSpace())
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(9)
		for id := uint64(1); id <= uint64(p.NumCompParts); id++ {
			// One transaction per composite part; the draws are made outside
			// it so that a retry repeats them.
			times := make([]int, p.NumAtomicPerComp)
			dates := make([]int, p.NumAtomicPerComp)
			for i := range times {
				times[i], dates[i] = 1+r.Intn(4), RandomDate(r)
			}
			err := eng.Atomic(func(tx stm.Tx) error {
				cp, ok := s.LookupComposite(tx, id)
				if !ok {
					t.Fatalf("composite part %d missing", id)
				}
				for i, ap := range cp.Parts {
					for k := 0; k < times[i]; k++ {
						u.toggle(s, tx, ap)
					}
					switch {
					case ap.ID%14 == 0:
						u.set(s, tx, ap, ap.BuildDate(tx)) // the date it has
					case ap.ID%7 == 0:
						u.set(s, tx, ap, dates[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		err = eng.Atomic(func(tx stm.Tx) error {
			b.Reset()
			s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
				fmt.Fprintf(&b, "part %d date %d\n", id, ap.BuildDate(tx))
				return true
			})
			s.AtomicPartsByDate(tx, MinDate, MaxDate, func(ap *AtomicPart) bool {
				fmt.Fprintf(&b, "by date: %d\n", ap.ID)
				return true
			})
			fmt.Fprintf(&b, "index len %d\n", s.Idx.AtomicByDate.Len(tx))
			return s.CheckInvariants(tx)
		})
		if err != nil {
			t.Error(err)
		}
		return b.String()
	}
	for _, engine := range stm.Registered() {
		for _, grouped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/grouped=%v", engine, grouped), func(t *testing.T) {
				p := Tiny()
				p.GroupAtomicParts = grouped
				got := run(t, engine, p, updater{(*Structure).ToggleAtomicDate, (*Structure).SetAtomicDate})
				want := run(t, engine, p, updater{(*Structure).toggleAtomicDateOracle, (*Structure).setAtomicDateOracle})
				if d := firstDifference(got, want); d != "" {
					t.Errorf("one-open update against oracle: %s", d)
				}
			})
		}
	}
}

// accessLog is a Tx that records, in order, which Var each call touched.
type accessLog struct {
	stm.Tx
	log []access
}

type access struct {
	kind string // "Read", "Write" or "Update"
	v    *stm.Var
}

func (a *accessLog) Read(v *stm.Var) any {
	a.log = append(a.log, access{"Read", v})
	return a.Tx.Read(v)
}

func (a *accessLog) Write(v *stm.Var, val any) {
	a.log = append(a.log, access{"Write", v})
	a.Tx.Write(v, val)
}

func (a *accessLog) Update(v *stm.Var, f func(any) any) {
	a.log = append(a.log, access{"Update", v})
	a.Tx.Update(v, f)
}

// TestToggleAtomicDateOpensEachVarOnce holds the indexed update to its two
// opens: one Update of the part's Var and one of the index Var, and no Read of
// either before it is owned (the Read inside Cell.Mut follows the Update and
// is served from the write set). A read first is what made T3b quadratic on
// OSTM; a second Update of the index is the Delete-then-Put this replaced.
func TestToggleAtomicDateOpensEachVarOnce(t *testing.T) {
	for _, engine := range stm.Registered() {
		for _, grouped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/grouped=%v", engine, grouped), func(t *testing.T) {
				eng, err := stm.New(engine)
				if err != nil {
					t.Fatal(err)
				}
				p := Tiny()
				p.GroupAtomicParts = grouped
				s, err := Build(p, 42, eng.VarSpace())
				if err != nil {
					t.Fatal(err)
				}
				indexVar := s.Idx.AtomicByDate.c.Var()
				var (
					log     []access
					partVar *stm.Var
				)
				err = eng.Atomic(func(tx stm.Tx) error {
					cp, _ := s.LookupComposite(tx, 2)
					ap := cp.Parts[1]
					if grouped {
						partVar = cp.groupStates.Var()
					} else {
						partVar = ap.state.Var()
					}
					rec := &accessLog{Tx: tx}
					s.ToggleAtomicDate(rec, ap)
					log = rec.log
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for name, v := range map[string]*stm.Var{"part": partVar, "index": indexVar} {
					updates, first := 0, ""
					for _, a := range log {
						if a.v != v {
							continue
						}
						if first == "" {
							first = a.kind
						}
						if a.kind != "Read" {
							updates++
						}
					}
					if updates != 1 || first != "Update" {
						t.Errorf("%s Var: %d writes, first access %q; want one Update, and first", name, updates, first)
					}
				}
				for _, a := range log {
					if a.v != partVar && a.v != indexVar {
						t.Errorf("%s of a Var that is neither the part's nor the index's", a.kind)
					}
				}
			})
		}
	}
}
