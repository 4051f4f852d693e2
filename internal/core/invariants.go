package core

import (
	"fmt"

	"repro/stm"
)

// CheckInvariants validates the complete structure through tx and returns
// the first violation found. It is used by the test suites (including the
// property test that hammers the structure with random SM operations) and
// by the harness's optional post-run verification.
//
// Checked:
//   - assembly tree shape: levels decrease by one, parents correct, the
//     root is at NumAssmLevels, every complex assembly has children, counts
//     within caps;
//   - the base-assembly <-> composite-part many-to-many links agree in both
//     directions;
//   - every index (Table 1) contains exactly the reachable objects;
//   - every composite part's graph: right part count, derived id range,
//     ring connectivity (every part reachable from the root part),
//     To/From agreement on every connection;
//   - id pools: free lists disjoint from live ids and within domains.
func (s *Structure) CheckInvariants(tx stm.Tx) error {
	p := s.P

	// --- walk the assembly tree ---
	liveComplex := map[uint64]*ComplexAssembly{}
	liveBase := map[uint64]*BaseAssembly{}
	root := s.Module.DesignRoot
	if root == nil {
		return fmt.Errorf("invariants: nil design root")
	}
	if root.Lvl != p.NumAssmLevels {
		return fmt.Errorf("invariants: root level %d, want %d", root.Lvl, p.NumAssmLevels)
	}
	if root.Super != nil {
		return fmt.Errorf("invariants: root has a parent")
	}
	var walk func(ca *ComplexAssembly) error
	walk = func(ca *ComplexAssembly) error {
		if ca.Lvl < 2 || ca.Lvl > p.NumAssmLevels {
			return fmt.Errorf("invariants: complex assembly %d at bad level %d", ca.ID, ca.Lvl)
		}
		if prev, dup := liveComplex[ca.ID]; dup {
			return fmt.Errorf("invariants: duplicate complex assembly id %d (%p, %p)", ca.ID, prev, ca)
		}
		liveComplex[ca.ID] = ca
		st := ca.State(tx)
		if len(st.SubComplex) > 0 && len(st.SubBase) > 0 {
			return fmt.Errorf("invariants: complex assembly %d has both kinds of children", ca.ID)
		}
		if len(st.SubComplex) == 0 && len(st.SubBase) == 0 {
			return fmt.Errorf("invariants: complex assembly %d has no children", ca.ID)
		}
		if ca.Lvl == 2 && len(st.SubBase) == 0 {
			return fmt.Errorf("invariants: level-2 assembly %d has no base assemblies", ca.ID)
		}
		if ca.Lvl > 2 && len(st.SubComplex) == 0 {
			return fmt.Errorf("invariants: level-%d assembly %d has no complex children", ca.Lvl, ca.ID)
		}
		for _, sub := range st.SubComplex {
			if sub.Lvl != ca.Lvl-1 {
				return fmt.Errorf("invariants: child %d level %d under level %d", sub.ID, sub.Lvl, ca.Lvl)
			}
			if sub.Super != ca {
				return fmt.Errorf("invariants: child %d parent link broken", sub.ID)
			}
			if err := walk(sub); err != nil {
				return err
			}
		}
		for _, ba := range st.SubBase {
			if ca.Lvl != 2 {
				return fmt.Errorf("invariants: base assembly %d under level-%d assembly", ba.ID, ca.Lvl)
			}
			if ba.Super != ca {
				return fmt.Errorf("invariants: base %d parent link broken", ba.ID)
			}
			if prev, dup := liveBase[ba.ID]; dup {
				return fmt.Errorf("invariants: duplicate base assembly id %d (%p, %p)", ba.ID, prev, ba)
			}
			liveBase[ba.ID] = ba
		}
		return nil
	}
	if err := walk(root); err != nil {
		return err
	}
	if uint64(len(liveBase)) > p.MaxBaseAssemblies() {
		return fmt.Errorf("invariants: %d base assemblies exceed cap %d", len(liveBase), p.MaxBaseAssemblies())
	}
	if uint64(len(liveComplex)) > p.MaxComplexAssemblies() {
		return fmt.Errorf("invariants: %d complex assemblies exceed cap %d", len(liveComplex), p.MaxComplexAssemblies())
	}

	// --- design library and composite parts ---
	liveComp := map[uint64]*CompositePart{}
	var compErr error
	s.Idx.CompositeByID.Ascend(tx, func(id uint64, cp *CompositePart) bool {
		if cp.ID != id {
			compErr = fmt.Errorf("invariants: composite index key %d holds part %d", id, cp.ID)
			return false
		}
		liveComp[id] = cp
		return true
	})
	if compErr != nil {
		return compErr
	}
	if uint64(len(liveComp)) > p.MaxCompParts() {
		return fmt.Errorf("invariants: %d composite parts exceed cap %d", len(liveComp), p.MaxCompParts())
	}

	// Bidirectional links.
	for _, ba := range liveBase {
		for _, cp := range ba.State(tx).Components {
			if liveComp[cp.ID] != cp {
				return fmt.Errorf("invariants: base %d links dead composite %d", ba.ID, cp.ID)
			}
			if !containsPtr(cp.State(tx).UsedIn, ba) {
				return fmt.Errorf("invariants: composite %d missing usedIn for base %d", cp.ID, ba.ID)
			}
		}
	}
	for _, cp := range liveComp {
		for _, ba := range cp.State(tx).UsedIn {
			if liveBase[ba.ID] != ba {
				return fmt.Errorf("invariants: composite %d used by dead base %d", cp.ID, ba.ID)
			}
			if !containsPtr(ba.State(tx).Components, cp) {
				return fmt.Errorf("invariants: base %d missing component link to composite %d", ba.ID, cp.ID)
			}
		}
	}

	// --- composite part internals ---
	liveAtomic := map[uint64]*AtomicPart{}
	for _, cp := range liveComp {
		if len(cp.Parts) != p.NumAtomicPerComp {
			return fmt.Errorf("invariants: composite %d has %d parts, want %d", cp.ID, len(cp.Parts), p.NumAtomicPerComp)
		}
		if cp.RootPart != cp.Parts[0] {
			return fmt.Errorf("invariants: composite %d root part mismatch", cp.ID)
		}
		if cp.Doc == nil || cp.Doc.Part != cp {
			return fmt.Errorf("invariants: composite %d document back-link broken", cp.ID)
		}
		lo := (cp.ID-1)*uint64(p.NumAtomicPerComp) + 1
		for i, ap := range cp.Parts {
			if ap.ID != lo+uint64(i) {
				return fmt.Errorf("invariants: composite %d part %d has id %d, want %d", cp.ID, i, ap.ID, lo+uint64(i))
			}
			if ap.PartOf != cp {
				return fmt.Errorf("invariants: atomic %d partOf broken", ap.ID)
			}
			if len(ap.To) != p.NumConnPerAtomic {
				return fmt.Errorf("invariants: atomic %d has %d outgoing connections, want %d", ap.ID, len(ap.To), p.NumConnPerAtomic)
			}
			d := ap.BuildDate(tx)
			if d < MinDate || d > MaxDate {
				return fmt.Errorf("invariants: atomic %d date %d out of range", ap.ID, d)
			}
			liveAtomic[ap.ID] = ap
		}
		// Connection symmetry.
		for _, ap := range cp.Parts {
			for _, c := range ap.To {
				if c.From != ap {
					return fmt.Errorf("invariants: connection from-link broken at atomic %d", ap.ID)
				}
				if c.To.PartOf != cp {
					return fmt.Errorf("invariants: connection escapes composite %d", cp.ID)
				}
				if !containsConn(c.To.From, c) {
					return fmt.Errorf("invariants: connection missing from target's From at atomic %d", ap.ID)
				}
			}
			for _, c := range ap.From {
				if c.To != ap {
					return fmt.Errorf("invariants: connection to-link broken at atomic %d", ap.ID)
				}
			}
		}
		// Ring connectivity: DFS along To edges reaches every part.
		seen := map[*AtomicPart]bool{}
		stack := []*AtomicPart{cp.RootPart}
		for len(stack) > 0 {
			ap := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[ap] {
				continue
			}
			seen[ap] = true
			for _, c := range ap.To {
				stack = append(stack, c.To)
			}
		}
		if len(seen) != len(cp.Parts) {
			return fmt.Errorf("invariants: composite %d graph disconnected (%d/%d reachable)", cp.ID, len(seen), len(cp.Parts))
		}
	}

	// --- indexes reflect exactly the live objects ---
	var idxErr error
	count := 0
	s.Idx.AtomicByID.Ascend(tx, func(id uint64, ap *AtomicPart) bool {
		count++
		if liveAtomic[id] != ap {
			idxErr = fmt.Errorf("invariants: atomic index entry %d stale", id)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}
	if count != len(liveAtomic) {
		return fmt.Errorf("invariants: atomic index has %d entries, want %d", count, len(liveAtomic))
	}

	dateCount := 0
	s.Idx.AtomicByDate.Ascend(tx, func(key uint64, ap *AtomicPart) bool {
		dateCount++
		if liveAtomic[ap.ID] != ap {
			idxErr = fmt.Errorf("invariants: date index key %#x holds dead atomic %d", key, ap.ID)
			return false
		}
		if date := ap.BuildDate(tx); key != DateKey(date, ap.ID) {
			idxErr = fmt.Errorf("invariants: atomic %d with date %d under date index key %#x", ap.ID, date, key)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}
	if dateCount != len(liveAtomic) {
		return fmt.Errorf("invariants: date index covers %d parts, want %d", dateCount, len(liveAtomic))
	}

	docCount := 0
	s.Idx.DocumentByTitle.Ascend(tx, func(title string, d *Document) bool {
		docCount++
		cp, ok := liveComp[d.ID]
		if !ok || cp.Doc != d || d.Title != title {
			idxErr = fmt.Errorf("invariants: document index entry %q stale", title)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}
	if docCount != len(liveComp) {
		return fmt.Errorf("invariants: document index has %d entries, want %d", docCount, len(liveComp))
	}

	baseCount := 0
	s.Idx.BaseByID.Ascend(tx, func(id uint64, ba *BaseAssembly) bool {
		baseCount++
		if liveBase[id] != ba {
			idxErr = fmt.Errorf("invariants: base index entry %d stale", id)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}
	if baseCount != len(liveBase) {
		return fmt.Errorf("invariants: base index has %d entries, want %d (tree)", baseCount, len(liveBase))
	}

	cplxCount := 0
	s.Idx.ComplexByID.Ascend(tx, func(id uint64, ca *ComplexAssembly) bool {
		cplxCount++
		if liveComplex[id] != ca {
			idxErr = fmt.Errorf("invariants: complex index entry %d stale", id)
			return false
		}
		return true
	})
	if idxErr != nil {
		return idxErr
	}
	if cplxCount != len(liveComplex) {
		return fmt.Errorf("invariants: complex index has %d entries, want %d (tree)", cplxCount, len(liveComplex))
	}

	// --- id pools ---
	ids := s.ids.Get(tx)
	if err := checkPool("composite", ids.NextComp, ids.FreeComp, p.MaxCompParts(), func(id uint64) bool { _, ok := liveComp[id]; return ok }); err != nil {
		return err
	}
	if err := checkPool("base", ids.NextBase, ids.FreeBase, p.MaxBaseAssemblies(), func(id uint64) bool { _, ok := liveBase[id]; return ok }); err != nil {
		return err
	}
	if err := checkPool("complex", ids.NextComplex, ids.FreeComplex, p.MaxComplexAssemblies(), func(id uint64) bool { _, ok := liveComplex[id]; return ok }); err != nil {
		return err
	}

	// Every id below next is either live or free.
	if int(ids.NextComp-1) != len(liveComp)+len(ids.FreeComp) {
		return fmt.Errorf("invariants: composite ids leaked: next=%d live=%d free=%d", ids.NextComp, len(liveComp), len(ids.FreeComp))
	}
	if int(ids.NextBase-1) != len(liveBase)+len(ids.FreeBase) {
		return fmt.Errorf("invariants: base ids leaked: next=%d live=%d free=%d", ids.NextBase, len(liveBase), len(ids.FreeBase))
	}
	if int(ids.NextComplex-1) != len(liveComplex)+len(ids.FreeComplex) {
		return fmt.Errorf("invariants: complex ids leaked: next=%d live=%d free=%d", ids.NextComplex, len(liveComplex), len(ids.FreeComplex))
	}
	return nil
}

func checkPool(kind string, next uint64, free []uint64, cap uint64, isLive func(uint64) bool) error {
	if next > cap+1 {
		return fmt.Errorf("invariants: %s next id %d beyond cap %d", kind, next, cap)
	}
	seen := map[uint64]bool{}
	for _, id := range free {
		if id == 0 || id >= next {
			return fmt.Errorf("invariants: %s free id %d out of range (next %d)", kind, id, next)
		}
		if seen[id] {
			return fmt.Errorf("invariants: %s free id %d duplicated", kind, id)
		}
		seen[id] = true
		if isLive(id) {
			return fmt.Errorf("invariants: %s id %d both free and live", kind, id)
		}
	}
	return nil
}

func containsPtr[T comparable](s []T, x T) bool {
	for _, e := range s {
		if e == x {
			return true
		}
	}
	return false
}

func containsConn(s []*Connection, c *Connection) bool {
	for _, e := range s {
		if e == c {
			return true
		}
	}
	return false
}
