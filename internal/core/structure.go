package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/rng"
	"repro/stm"
)

// IDState is the transactional id-allocation state for the three object
// kinds that structure modification operations create and delete. Ids are
// reused through free lists so the live id set stays dense in
// [1, cap], keeping the failure probability of random-id lookups stable
// (§3: operations pick random ids and fail when the id does not exist).
type IDState struct {
	NextComp    uint64
	FreeComp    []uint64
	NextBase    uint64
	FreeBase    []uint64
	NextComplex uint64
	FreeComplex []uint64
}

func cloneIDState(s IDState) IDState {
	s.FreeComp = stm.CloneSlice(s.FreeComp)
	s.FreeBase = stm.CloneSlice(s.FreeBase)
	s.FreeComplex = stm.CloneSlice(s.FreeComplex)
	return s
}

// Structure is the complete shared data structure: the module graph, the
// indexes, and the id-allocation state. One Structure is built per
// benchmark run (see Build) and shared by all worker threads.
type Structure struct {
	P      Params
	Space  *stm.VarSpace
	Module *Module
	Idx    *Indexes

	ids *stm.Cell[IDState]

	// compSampler and atomicSampler, when installed, bias RandomCompID
	// and RandomAtomicID draws (contention skew; see SetIDSamplers).
	compSampler   atomic.Pointer[IDSampler]
	atomicSampler atomic.Pointer[IDSampler]
}

// --- id allocation -------------------------------------------------------

// allocID pops from free or advances next, respecting the cap.
func allocID(next *uint64, free *[]uint64, cap uint64) (uint64, bool) {
	if n := len(*free); n > 0 {
		id := (*free)[n-1]
		*free = (*free)[:n-1]
		return id, true
	}
	if *next > cap {
		return 0, false
	}
	id := *next
	*next++
	return id, true
}

// AllocCompID reserves a composite-part id; ok is false at the cap.
func (s *Structure) AllocCompID(tx stm.Tx) (id uint64, ok bool) {
	st := s.ids.Mut(tx)
	return allocID(&st.NextComp, &st.FreeComp, s.P.MaxCompParts())
}

// FreeCompID returns a composite-part id to the pool.
func (s *Structure) FreeCompID(tx stm.Tx, id uint64) {
	st := s.ids.Mut(tx)
	st.FreeComp = append(st.FreeComp, id)
}

// AllocBaseID reserves a base-assembly id; ok is false at the cap.
func (s *Structure) AllocBaseID(tx stm.Tx) (id uint64, ok bool) {
	st := s.ids.Mut(tx)
	return allocID(&st.NextBase, &st.FreeBase, s.P.MaxBaseAssemblies())
}

// FreeBaseID returns a base-assembly id to the pool.
func (s *Structure) FreeBaseID(tx stm.Tx, id uint64) {
	st := s.ids.Mut(tx)
	st.FreeBase = append(st.FreeBase, id)
}

// AllocComplexID reserves a complex-assembly id; ok is false at the cap.
func (s *Structure) AllocComplexID(tx stm.Tx) (id uint64, ok bool) {
	st := s.ids.Mut(tx)
	return allocID(&st.NextComplex, &st.FreeComplex, s.P.MaxComplexAssemblies())
}

// FreeComplexID returns a complex-assembly id to the pool.
func (s *Structure) FreeComplexID(tx stm.Tx, id uint64) {
	st := s.ids.Mut(tx)
	st.FreeComplex = append(st.FreeComplex, id)
}

func available(next uint64, free int, cap uint64) int {
	n := free
	if next <= cap {
		n += int(cap - next + 1)
	}
	return n
}

// AvailableCompIDs returns how many composite-part ids can still be
// allocated.
func (s *Structure) AvailableCompIDs(tx stm.Tx) int {
	st := s.ids.Get(tx)
	return available(st.NextComp, len(st.FreeComp), s.P.MaxCompParts())
}

// AvailableBaseIDs returns how many base-assembly ids can still be
// allocated.
func (s *Structure) AvailableBaseIDs(tx stm.Tx) int {
	st := s.ids.Get(tx)
	return available(st.NextBase, len(st.FreeBase), s.P.MaxBaseAssemblies())
}

// AvailableComplexIDs returns how many complex-assembly ids can still be
// allocated.
func (s *Structure) AvailableComplexIDs(tx stm.Tx) int {
	st := s.ids.Get(tx)
	return available(st.NextComplex, len(st.FreeComplex), s.P.MaxComplexAssemblies())
}

// SubtreeIDNeeds returns how many complex and base assembly ids a full
// subtree rooted at the given level requires (SM7's pre-check: the
// operation must fail before creating anything if a pool would run dry).
func (p Params) SubtreeIDNeeds(level int) (complexN, baseN int) {
	if level <= 1 {
		return 0, 1
	}
	f := p.NumAssmPerAssm
	pow := 1
	for j := 0; j <= level-2; j++ {
		complexN += pow
		pow *= f
	}
	return complexN, pow // pow == f^(level-1)
}

// --- random id domains (no tx needed; caps are static) -------------------

// RandomAtomicID draws from the atomic-part id domain — uniformly, unless
// an atomic-part sampler is installed (SetIDSamplers).
func (s *Structure) RandomAtomicID(r *rng.Rand) uint64 {
	n := s.P.MaxAtomicParts()
	if f := s.atomicSampler.Load(); f != nil {
		return 1 + (*f)(r, n)
	}
	return 1 + r.Uint64n(n)
}

// RandomCompID draws from the composite-part id domain — uniformly, unless
// a composite-part sampler is installed (SetIDSamplers).
func (s *Structure) RandomCompID(r *rng.Rand) uint64 {
	n := s.P.MaxCompParts()
	if f := s.compSampler.Load(); f != nil {
		return 1 + (*f)(r, n)
	}
	return 1 + r.Uint64n(n)
}

// RandomBaseID draws from the base-assembly id domain.
func (s *Structure) RandomBaseID(r *rng.Rand) uint64 {
	return 1 + r.Uint64n(s.P.MaxBaseAssemblies())
}

// RandomComplexID draws from the complex-assembly id domain.
func (s *Structure) RandomComplexID(r *rng.Rand) uint64 {
	return 1 + r.Uint64n(s.P.MaxComplexAssemblies())
}

// RandomDate draws a build date.
func RandomDate(r *rng.Rand) int { return r.Range(MinDate, MaxDate) }

// --- index lookups -------------------------------------------------------

// LookupAtomic finds an atomic part by id (index 1 of Table 1).
func (s *Structure) LookupAtomic(tx stm.Tx, id uint64) (*AtomicPart, bool) {
	return s.Idx.AtomicByID.Get(tx, id)
}

// LookupComposite finds a composite part by id (index 3).
func (s *Structure) LookupComposite(tx stm.Tx, id uint64) (*CompositePart, bool) {
	return s.Idx.CompositeByID.Get(tx, id)
}

// DocumentByTitle finds a document by title (index 4). The title is only
// compared with the index's keys, never kept, so a caller's title built in a
// stack buffer stays there.
func (s *Structure) DocumentByTitle(tx stm.Tx, title []byte) (*Document, bool) {
	return s.Idx.DocumentByTitle.Get(tx, unsafe.String(unsafe.SliceData(title), len(title)))
}

// LookupBase finds a base assembly by id (index 5).
func (s *Structure) LookupBase(tx stm.Tx, id uint64) (*BaseAssembly, bool) {
	return s.Idx.BaseByID.Get(tx, id)
}

// LookupComplex finds a complex assembly by id (index 6).
func (s *Structure) LookupComplex(tx stm.Tx, id uint64) (*ComplexAssembly, bool) {
	return s.Idx.ComplexByID.Get(tx, id)
}

// --- build-date index maintenance (index 2) ------------------------------

// dateKeyIDBits is the width of the id field of a build-date index key.
// Params.Validate keeps every atomic-part id below 1<<dateKeyIDBits.
const dateKeyIDBits = 32

// DateKey is the build-date index's key for atomic part id built on date. It
// is pair-major: the date pair date>>1 first, then the id, then the date's
// parity, (date>>1)<<33 | id<<1 | date&1. A part's two keys in a pair — the
// two dates ToggleDate moves it between — are adjacent in key order, with no
// other part's key between them, so a toggle re-keys one index entry where
// it stands (btree.Map.Move). The parts built in the pairs covering [lo, hi]
// are exactly the keys in [DateKey(lo&^1, 0), DateKey(hi|1, 1<<32-1)].
func DateKey(date int, id uint64) uint64 {
	return uint64(date>>1)<<(dateKeyIDBits+1) | id<<1 | uint64(date&1)
}

// keyDate is the date a DateKey was built from.
func keyDate(k uint64) int { return int(k>>(dateKeyIDBits+1))<<1 | int(k&1) }

// AtomicPartsByDate calls fn for every atomic part with buildDate in
// [lo, hi], in DateKey order (by date pair, then id, then date), as the
// index walk reaches it, until fn returns false. fn must not change a build
// date (Index.Range). The walk covers whole pairs; an odd lo or an even hi
// leaves one out-of-range date in an end pair, and those parts are skipped.
func (s *Structure) AtomicPartsByDate(tx stm.Tx, lo, hi int, fn func(*AtomicPart) bool) {
	from, to := DateKey(lo&^1, 0), DateKey(hi|1, 1<<dateKeyIDBits-1)
	s.Idx.AtomicByDate.Range(tx, from, to, func(k uint64, p *AtomicPart) bool {
		if d := keyDate(k); d < lo || d > hi {
			return true
		}
		return fn(p)
	})
}

// SetAtomicDate changes p's buildDate and maintains the build-date index —
// the paper's "update operation on an indexed attribute" (T3, OP15): one open
// of the part for writing and one Index.Move. Setting the date a part already
// has writes nothing.
func (s *Structure) SetAtomicDate(tx stm.Tx, p *AtomicPart, newDate int) {
	old := p.BuildDate(tx)
	if old == newDate {
		return
	}
	p.Mutate(tx, func(st *AtomicPartState) { st.BuildDate = newDate })
	s.Idx.AtomicByDate.Move(tx, DateKey(old, p.ID), DateKey(newDate, p.ID))
}

// ToggleDate is the one date update the benchmark's operations make: d+1 if
// d is even, d-1 if it is odd. MinDate is even and MaxDate odd (params.go
// will not compile otherwise), so a date in [MinDate, MaxDate] never leaves
// its pair {2k, 2k+1}: ToggleDate(d)>>1 == d>>1, the result is in range
// without a clamp, and ToggleDate(ToggleDate(d)) == d. DateKey relies on the
// first: a toggled part's two index keys differ only in bit 0.
func ToggleDate(d int) int { return d ^ 1 }

// ToggleAtomicDate is the canonical indexed update: ToggleDate on the part's
// build date, and the matching re-keying of the build-date index.
//
// It always writes, so it opens the part for writing straight away and takes
// the old date from the private copy, as STMBench7 does; it does not read the
// part first. A read before the write puts the part in the read set, and an
// STM with invisible reads revalidates its read set on every later open
// (OSTM: T3b's cost grew with the square of the parts visited), whereas an
// object it owns costs nothing more.
func (s *Structure) ToggleAtomicDate(tx stm.Tx, p *AtomicPart) {
	var old, nd int
	p.Mutate(tx, func(st *AtomicPartState) {
		old = st.BuildDate
		nd = ToggleDate(old)
		st.BuildDate = nd
	})
	s.Idx.AtomicByDate.Move(tx, DateKey(old, p.ID), DateKey(nd, p.ID))
}

// --- creation and deletion helpers (shared by the builder and SM ops) ----

// BuildCompositePart creates a composite part with the given id — its
// document and its atomic-part graph (a ring plus NumConnPerAtomic-1 random
// extra connections per part, so the graph is connected) — and registers
// everything in the indexes. It does NOT link the part to any base assembly
// (SM1 semantics: "add it to the design library without linking").
func (s *Structure) BuildCompositePart(tx stm.Tx, r *rng.Rand, id uint64) *CompositePart {
	p := s.P
	cp := &CompositePart{ID: id}
	cp.Doc = &Document{
		ID:    id,
		Title: DocumentTitle(id),
		Part:  cp,
	}
	cp.Doc.text = named(stm.NewCell(s.Space, DocumentText(id, p.DocumentSize)), DomainDocument)
	cp.state = named(stm.NewCellClone(s.Space, CompositePartState{BuildDate: RandomDate(r)},
		func(st CompositePartState) CompositePartState {
			st.UsedIn = stm.CloneSlice(st.UsedIn)
			return st
		}), DomainComposite)

	// The graph is a handful of slabs, not an object per node and edge:
	// STMBench7 creates and deletes whole graphs (SM1/SM2) and never rewires
	// one, so everything below lives exactly as long as cp does. The RNG is
	// drawn from in the order the one-object-at-a-time builder drew
	// (buildCompositePartReference in the tests), so a seed builds the same
	// structure.
	n, nc := p.NumAtomicPerComp, p.NumConnPerAtomic
	slab := make([]AtomicPart, n)
	parts := make([]*AtomicPart, n)
	states := make([]AtomicPartState, n)
	baseID := (id-1)*uint64(n) + 1
	for i := range slab {
		states[i] = AtomicPartState{
			X:         r.Intn(1 << 16),
			Y:         r.Intn(1 << 16),
			BuildDate: RandomDate(r),
		}
		parts[i] = &slab[i]
		slab[i].ID, slab[i].PartOf, slab[i].slot, slab[i].grouped = baseID+uint64(i), cp, i, p.GroupAtomicParts
	}
	if p.GroupAtomicParts {
		cp.groupStates = named(stm.NewCellClone(s.Space, states, stm.CloneSlice[AtomicPartState]), DomainAtomic)
	} else {
		for i := range slab {
			stm.InitCell(s.Space, &slab[i].state, states[i])
			named(&slab[i].state, DomainAtomic)
		}
	}

	// Connections: part i's outgoing edges are conns[i*nc:][:nc]. The ring
	// edge i -> (i+1) mod n comes first and keeps the graph connected for
	// T1's depth-first searches; extras go to random parts.
	conns := make([]Connection, n*nc)
	for i := range slab {
		for k := 0; k < nc; k++ {
			target := (i + 1) % n
			if k > 0 {
				target = r.Intn(n)
			}
			conns[i*nc+k] = Connection{
				From:   int32(i),
				To:     int32(target),
				Length: int32(1 + r.Intn(100)),
				kind:   uint8(k % len(connTypes)),
			}
		}
	}
	cp.conns, cp.in, cp.outDegree = conns, incomingIndex(conns, n), nc
	cp.RootPart = parts[0]
	cp.Parts = parts

	// Register in the design library and indexes.
	s.Idx.CompositeByID.Put(tx, id, cp)
	s.Idx.DocumentByTitle.Put(tx, cp.Doc.Title, cp.Doc)
	for i, ap := range parts {
		s.Idx.AtomicByID.Put(tx, ap.ID, ap)
		s.Idx.AtomicByDate.Put(tx, DateKey(states[i].BuildDate, ap.ID), ap)
	}
	return cp
}

// incomingIndex builds a composite part's incoming-edge index over its n
// parts: n+1 offsets, then every connection's index grouped by target part
// and in connection order within a part. It counts each part's in-degree
// into the offset after it, prefix sums turn the counts into each part's
// start, filling advances each start to its part's end, and shifting the
// offsets up one restores the starts.
func incomingIndex(conns []Connection, n int) []int32 {
	in := make([]int32, n+1+len(conns))
	for _, c := range conns {
		in[c.To+1]++
	}
	in[0] = int32(n + 1)
	for i := 1; i <= n; i++ {
		in[i] += in[i-1]
	}
	for ci, c := range conns {
		in[in[c.To]] = int32(ci)
		in[c.To]++
	}
	copy(in[1:n+1], in[:n])
	in[0] = int32(n + 1)
	return in
}

// DeleteCompositePart removes cp from the design library, all indexes and
// every base assembly using it (SM2 semantics).
func (s *Structure) DeleteCompositePart(tx stm.Tx, cp *CompositePart) {
	// Unlink from base assemblies.
	for _, ba := range cp.State(tx).UsedIn {
		b := ba
		b.Mutate(tx, func(st *BaseAssemblyState) {
			st.Components = removePtr(st.Components, cp)
		})
	}
	s.Idx.CompositeByID.Delete(tx, cp.ID)
	s.Idx.DocumentByTitle.Delete(tx, cp.Doc.Title)
	for _, ap := range cp.Parts {
		s.Idx.AtomicByID.Delete(tx, ap.ID)
		s.Idx.AtomicByDate.Delete(tx, DateKey(ap.BuildDate(tx), ap.ID))
	}
	s.FreeCompID(tx, cp.ID)
}

// removePtr returns a new slice without the first occurrence of x. The
// original is not mutated (slices inside states are shared across clones).
func removePtr[T comparable](s []T, x T) []T {
	out := make([]T, 0, len(s))
	removed := false
	for _, e := range s {
		if !removed && e == x {
			removed = true
			continue
		}
		out = append(out, e)
	}
	return out
}

// LinkCompositeToBase attaches cp to ba (SM3 and assembly creation).
func LinkCompositeToBase(tx stm.Tx, ba *BaseAssembly, cp *CompositePart) {
	ba.Mutate(tx, func(st *BaseAssemblyState) {
		st.Components = appendCopy(st.Components, cp)
	})
	cp.Mutate(tx, func(st *CompositePartState) {
		st.UsedIn = appendCopy(st.UsedIn, ba)
	})
}

// UnlinkCompositeFromBase detaches cp from ba (SM4, deletions).
func UnlinkCompositeFromBase(tx stm.Tx, ba *BaseAssembly, cp *CompositePart) {
	ba.Mutate(tx, func(st *BaseAssemblyState) {
		st.Components = removePtr(st.Components, cp)
	})
	cp.Mutate(tx, func(st *CompositePartState) {
		st.UsedIn = removePtr(st.UsedIn, ba)
	})
}

// appendCopy appends into a fresh backing array (never mutates the shared
// one).
func appendCopy[T any](s []T, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s)
	out[len(s)] = x
	return out
}

// BuildBaseAssembly creates a base assembly with the given id under parent,
// links NumCompPerAssm random live composite parts to it, registers it in
// the index, and appends it to the parent's children.
func (s *Structure) BuildBaseAssembly(tx stm.Tx, r *rng.Rand, id uint64, parent *ComplexAssembly) *BaseAssembly {
	ba := &BaseAssembly{ID: id, Super: parent}
	ba.state = named(stm.NewCellClone(s.Space, BaseAssemblyState{BuildDate: RandomDate(r)},
		func(st BaseAssemblyState) BaseAssemblyState {
			st.Components = stm.CloneSlice(st.Components)
			return st
		}), DomainBase)
	// Link random composite parts from the design library. Random ids may
	// miss (the id domain has growth headroom), so retry each slot a few
	// times; a base assembly can still end up with fewer components, which
	// ST1-style traversals handle by failing.
	for k := 0; k < s.P.NumCompPerAssm; k++ {
		for try := 0; try < 4; try++ {
			if cp, ok := s.Idx.CompositeByID.Get(tx, s.RandomCompID(r)); ok {
				LinkCompositeToBase(tx, ba, cp)
				break
			}
		}
	}
	s.Idx.BaseByID.Put(tx, id, ba)
	parent.Mutate(tx, func(st *ComplexAssemblyState) {
		st.SubBase = appendCopy(st.SubBase, ba)
	})
	return ba
}

// DeleteBaseAssembly unlinks ba's composite parts, removes it from its
// parent and the index, and frees its id (SM6 semantics; the caller checks
// the not-only-child constraint).
func (s *Structure) DeleteBaseAssembly(tx stm.Tx, ba *BaseAssembly) {
	for _, cp := range ba.State(tx).Components {
		c := cp
		c.Mutate(tx, func(st *CompositePartState) {
			st.UsedIn = removePtr(st.UsedIn, ba)
		})
	}
	ba.Super.Mutate(tx, func(st *ComplexAssemblyState) {
		st.SubBase = removePtr(st.SubBase, ba)
	})
	s.Idx.BaseByID.Delete(tx, ba.ID)
	s.FreeBaseID(tx, ba.ID)
}

// BuildComplexAssembly creates a complex assembly with the given id at the
// given level under parent (nil for the root), registers it, and appends it
// to the parent's children.
func (s *Structure) BuildComplexAssembly(tx stm.Tx, r *rng.Rand, id uint64, level int, parent *ComplexAssembly) *ComplexAssembly {
	ca := &ComplexAssembly{ID: id, Lvl: level, Super: parent}
	ca.state = named(stm.NewCellClone(s.Space, ComplexAssemblyState{BuildDate: RandomDate(r)},
		func(st ComplexAssemblyState) ComplexAssemblyState {
			st.SubComplex = stm.CloneSlice(st.SubComplex)
			st.SubBase = stm.CloneSlice(st.SubBase)
			return st
		}), DomainComplex)
	s.Idx.ComplexByID.Put(tx, id, ca)
	if parent != nil {
		parent.Mutate(tx, func(st *ComplexAssemblyState) {
			st.SubComplex = appendCopy(st.SubComplex, ca)
		})
	}
	return ca
}

// DeleteAssemblySubtree removes ca and every descendant assembly (SM8
// semantics; the caller checks root/only-child constraints). Composite
// parts survive — only their usedIn links to deleted base assemblies go.
func (s *Structure) DeleteAssemblySubtree(tx stm.Tx, ca *ComplexAssembly) {
	st := ca.State(tx)
	for _, sub := range st.SubComplex {
		s.DeleteAssemblySubtree(tx, sub)
	}
	for _, ba := range st.SubBase {
		s.DeleteBaseAssembly(tx, ba)
	}
	if ca.Super != nil {
		ca.Super.Mutate(tx, func(ps *ComplexAssemblyState) {
			ps.SubComplex = removePtr(ps.SubComplex, ca)
		})
	}
	s.Idx.ComplexByID.Delete(tx, ca.ID)
	s.FreeComplexID(tx, ca.ID)
}

// BuildAssemblySubtree creates a full subtree of the given height under
// parent: a complex assembly with NumAssmPerAssm children per level, base
// assemblies at level 1 (SM7 semantics). It returns false — failing the
// enclosing operation — if an id pool runs dry partway (the transaction is
// rolled back by the caller returning an error).
func (s *Structure) BuildAssemblySubtree(tx stm.Tx, r *rng.Rand, level int, parent *ComplexAssembly) bool {
	if level == 1 {
		id, ok := s.AllocBaseID(tx)
		if !ok {
			return false
		}
		s.BuildBaseAssembly(tx, r, id, parent)
		return true
	}
	id, ok := s.AllocComplexID(tx)
	if !ok {
		return false
	}
	ca := s.BuildComplexAssembly(tx, r, id, level, parent)
	for i := 0; i < s.P.NumAssmPerAssm; i++ {
		if !s.BuildAssemblySubtree(tx, r, level-1, ca) {
			return false
		}
	}
	return true
}
