package ops

import (
	"sync"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// forEachBaseAssembly walks the assembly tree depth-first and calls fn for
// every base assembly.
func forEachBaseAssembly(tx stm.Tx, root *core.ComplexAssembly, fn func(*core.BaseAssembly)) {
	st := root.State(tx)
	for _, sub := range st.SubComplex {
		forEachBaseAssembly(tx, sub, fn)
	}
	for _, ba := range st.SubBase {
		fn(ba)
	}
}

// dfsScratch is the reusable "seen" state of an operation: a
// generation-stamped open-addressed id set plus graphDFS's explicit
// traversal stack. The long traversals run one DFS per composite part
// visited — tens of thousands per T1 at paper scale — and a per-call map was
// the single biggest cost of the whole traversal (hashing plus table growth
// dwarfed the transactional reads the benchmark exists to measure); ST4's
// set of base assemblies and ST3/ST8's set of complex assemblies are the
// same thing keyed by assembly id. The scratch is pooled because operations
// are pure functions of (tx, structure, rng) with no per-thread home;
// generation clearing makes reuse O(1).
type dfsScratch struct {
	gen   uint32
	count int
	slots []dfsSlot // power-of-two open-addressed table
	mask  uint64
	stack []*core.AtomicPart
}

// dfsSlot holds one seen id; a slot is live iff its gen matches the
// scratch's current generation.
type dfsSlot struct {
	id  uint64
	gen uint32
}

var dfsPool = sync.Pool{New: func() any {
	s := &dfsScratch{slots: make([]dfsSlot, 256)}
	s.mask = uint64(len(s.slots) - 1)
	return s
}}

// acquireScratch takes a scratch from the pool with an empty set and stack.
// Release it with defer: engines abort conflicting (or snapshot-restarting)
// attempts by panicking through the operation body, and losing the grown
// scratch on every abort would re-introduce per-retry allocation in exactly
// the contended operations the pool exists for.
func acquireScratch() *dfsScratch {
	s := dfsPool.Get().(*dfsScratch)
	s.begin()
	return s
}

// release scrubs and repools the scratch. The scrub drops retained part
// pointers so an idle pooled scratch cannot pin parts — whole composite-part
// slabs — deleted by later SM operations.
func (s *dfsScratch) release() {
	clear(s.stack[:cap(s.stack)])
	s.stack = s.stack[:0]
	dfsPool.Put(s)
}

// begin starts a fresh traversal: O(1) via a generation bump, with a full
// clear only on the (rare) uint32 wrap.
func (s *dfsScratch) begin() {
	s.gen++
	if s.gen == 0 {
		clear(s.slots)
		s.gen = 1
	}
	s.count = 0
	s.stack = s.stack[:0]
}

// dfsHash mixes part ids into table indexes (Fibonacci hashing, the same
// mix the stm package uses for Var ids).
func dfsHash(id uint64) uint64 {
	h := id * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// add inserts id into the seen set, reporting whether it was new.
func (s *dfsScratch) add(id uint64) bool {
	if s.count*2 >= len(s.slots) {
		s.grow()
	}
	i := dfsHash(id) & s.mask
	for {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.id, sl.gen = id, s.gen
			s.count++
			return true
		}
		if sl.id == id {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// grow doubles the table, re-inserting the current generation's entries.
func (s *dfsScratch) grow() {
	old := s.slots
	s.slots = make([]dfsSlot, 2*len(old))
	s.mask = uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.gen != s.gen {
			continue
		}
		i := dfsHash(sl.id) & s.mask
		for s.slots[i].gen == s.gen {
			i = (i + 1) & s.mask
		}
		s.slots[i] = dfsSlot{id: sl.id, gen: s.gen}
	}
}

// graphDFS visits every atomic part reachable from rootPart along outgoing
// connections (the builder's ring edge guarantees that is the whole graph)
// and calls fn once per part. It returns the number of parts visited.
// Parts are deduplicated by id, which is unique per live part; the visit
// order is identical to the original map-based implementation (LIFO, edges
// pushed in connection order).
func graphDFS(rootPart *core.AtomicPart, fn func(*core.AtomicPart)) int {
	s := acquireScratch()
	defer s.release()
	s.add(rootPart.ID)
	s.stack = append(s.stack, rootPart)
	visited := 0
	for len(s.stack) > 0 {
		p := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		visited++
		fn(p)
		for _, c := range p.To {
			if s.add(c.To.ID) {
				s.stack = append(s.stack, c.To)
			}
		}
	}
	return visited
}

// readAtomicPart is the canonical "read-only operation on an atomic part":
// it reads the part's state and folds it into a checksum so the compiler
// cannot elide the access.
func readAtomicPart(tx stm.Tx, p *core.AtomicPart, sink *int) {
	st := p.State(tx)
	*sink += st.X + st.Y + st.BuildDate
}

// randomSubPath descends one random step from a complex assembly: it
// returns a random child (complex or base). Used by ST1/ST2/ST6/ST7/ST9/ST10.
func randomChild(tx stm.Tx, ca *core.ComplexAssembly, r *rng.Rand) (nextComplex *core.ComplexAssembly, base *core.BaseAssembly) {
	st := ca.State(tx)
	if len(st.SubComplex) > 0 {
		return st.SubComplex[r.Intn(len(st.SubComplex))], nil
	}
	if len(st.SubBase) > 0 {
		return nil, st.SubBase[r.Intn(len(st.SubBase))]
	}
	return nil, nil
}

// descendToComposite walks a random path module -> ... -> base assembly ->
// composite part. It fails (returns nil) when it lands on a base assembly
// with no descendant composite parts, per the ST1/ST2 failure rule.
func descendToComposite(tx stm.Tx, s *core.Structure, r *rng.Rand) *core.CompositePart {
	ca := s.Module.DesignRoot
	for {
		sub, base := randomChild(tx, ca, r)
		if base != nil {
			comps := base.State(tx).Components
			if len(comps) == 0 {
				return nil
			}
			return comps[r.Intn(len(comps))]
		}
		if sub == nil {
			return nil // defensively: malformed tree
		}
		ca = sub
	}
}

// ascendantComplexAssemblies walks from each base assembly in bas up to the
// root, visiting every complex assembly at most once, and calls fn per
// newly visited assembly. Returns the number visited. (ST3/ST8 semantics.)
func ascendantComplexAssemblies(bas []*core.BaseAssembly, fn func(*core.ComplexAssembly)) int {
	seen := acquireScratch()
	defer seen.release()
	for _, ba := range bas {
		for ca := ba.Super; ca != nil; ca = ca.Super {
			if !seen.add(ca.ID) {
				break // everything above is visited too
			}
			fn(ca)
		}
	}
	return seen.count
}
