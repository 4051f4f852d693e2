package core

import (
	"repro/stm"
)

// AtomicPartState is the mutable state of an atomic part: the non-indexed
// attributes x and y and the indexed buildDate. (Connections are immutable
// per Appendix B.1 and live directly on the AtomicPart.)
type AtomicPartState struct {
	X, Y      int
	BuildDate int
}

// AtomicPart is a node of a composite part's graph. Its graph links (To,
// From, PartOf) are fixed at creation: STMBench7 creates and deletes whole
// graphs (SM1/SM2) but never rewires one.
//
// That is what lets BuildCompositePart allocate a graph as five slabs — the
// parts, their state cells, the connections, and one backing array each for
// all To and all From lists — so an AtomicPart, its state cell, a Connection
// and a To or From list are all interior pointers. Slab lifetime is
// composite-part lifetime, and the other side of that is retention: one stray
// pointer to a part, cell or connection of a deleted composite part (a stale
// slot in an index node, a pooled scratch buffer) pins its whole slab, about
// 4 KB at Small, where it used to pin one 100-byte object. Holders that
// outlive a transaction must drop such pointers (TestDeletedGraphIsCollected).
type AtomicPart struct {
	ID     uint64
	PartOf *CompositePart
	To     []*Connection // outgoing (ring edge first, then extras)
	From   []*Connection // incoming

	// Exactly one of state/group is set. state is the paper-faithful
	// one-object-per-part representation (a cell of the composite part's
	// slab); group is the §5 "GroupAtomicParts" optimization where the
	// whole graph's states live in one cell on the composite part and slot
	// indexes this part's.
	state *stm.Cell[AtomicPartState]
	group *stm.Cell[[]AtomicPartState]
	slot  int
}

// State reads the part's mutable attributes.
func (p *AtomicPart) State(tx stm.Tx) AtomicPartState {
	if p.group != nil {
		return p.group.Get(tx)[p.slot]
	}
	return p.state.Get(tx)
}

// BuildDate reads the part's build date.
func (p *AtomicPart) BuildDate(tx stm.Tx) int { return p.State(tx).BuildDate }

// Mutate applies f to the transaction's private copy of the part's state
// (the live state under the direct engine), opening the part for writing
// without reading it first: f sees the current state and may read what it is
// about to change. Callers that change BuildDate must re-key the part in the
// build-date index themselves, with one Index.Move (see
// Structure.ToggleAtomicDate).
func (p *AtomicPart) Mutate(tx stm.Tx, f func(*AtomicPartState)) {
	if p.group != nil {
		f(&(*p.group.Mut(tx))[p.slot])
		return
	}
	f(p.state.Mut(tx))
}

// SwapXY is the paper's non-indexed update: exchange x and y.
func (p *AtomicPart) SwapXY(tx stm.Tx) {
	p.Mutate(tx, func(s *AtomicPartState) { s.X, s.Y = s.Y, s.X })
}

// Connection links two atomic parts. Connections are immutable (Appendix
// B.1). There are NumConnPerAtomic per atomic part, which makes them the most
// numerous object of the structure, so the type is a one-byte index into
// connTypes and not the string: with it the struct fits the 32-byte size
// class.
type Connection struct {
	Length int
	From   *AtomicPart
	To     *AtomicPart
	kind   uint8
}

// connTypes is the small set of connection type strings, as in OO7.
var connTypes = [...]string{"type_a", "type_b", "type_c", "type_d"}

// Type returns the connection's type string.
func (c *Connection) Type() string { return connTypes[c.kind] }

// CompositePartState is the mutable state of a composite part: the build
// date and the bag of base assemblies using it (maintained by SM3/SM4 and
// assembly creation/deletion).
type CompositePartState struct {
	BuildDate int
	UsedIn    []*BaseAssembly
}

// CompositePart is a design-library element: a documentation object plus a
// graph of atomic parts rooted at RootPart. Parts and the graph's
// connections are fixed at creation.
type CompositePart struct {
	ID       uint64
	Doc      *Document
	RootPart *AtomicPart
	Parts    []*AtomicPart

	state *stm.Cell[CompositePartState]
	// groupStates backs the parts' shared state cell when
	// Params.GroupAtomicParts is on (nil otherwise).
	groupStates *stm.Cell[[]AtomicPartState]
}

// State reads the composite part's mutable state. The returned UsedIn slice
// must not be mutated.
func (c *CompositePart) State(tx stm.Tx) CompositePartState { return c.state.Get(tx) }

// BuildDate reads the composite part's build date.
func (c *CompositePart) BuildDate(tx stm.Tx) int { return c.state.Get(tx).BuildDate }

// Mutate applies f to the composite part's state.
func (c *CompositePart) Mutate(tx stm.Tx, f func(*CompositePartState)) {
	f(c.state.Mut(tx))
}

// Document is a composite part's documentation. Title and ID are immutable;
// the text is one object (its updates copy the whole text under an STM).
type Document struct {
	ID    uint64
	Title string
	Part  *CompositePart // back link, set at creation

	text *stm.Cell[string]
}

// Text reads the document text.
func (d *Document) Text(tx stm.Tx) string { return d.text.Get(tx) }

// SetText replaces the document text.
func (d *Document) SetText(tx stm.Tx, s string) { d.text.Set(tx, s) }

// Manual is the module's manual. With one chunk (the default) it is the
// paper's pathological single large object; with more chunks it is the §5
// optimization.
type Manual struct {
	ID     uint64
	Title  string
	chunks []*stm.Cell[string]
}

// NumChunks returns the number of separately synchronized text chunks.
func (m *Manual) NumChunks() int { return len(m.chunks) }

// Chunk reads chunk i.
func (m *Manual) Chunk(tx stm.Tx, i int) string { return m.chunks[i].Get(tx) }

// SetChunk replaces chunk i.
func (m *Manual) SetChunk(tx stm.Tx, i int, s string) { m.chunks[i].Set(tx, s) }

// FullText concatenates all chunks (used by tests; operations deliberately
// work per chunk).
func (m *Manual) FullText(tx stm.Tx) string {
	if len(m.chunks) == 1 {
		return m.chunks[0].Get(tx)
	}
	var out []byte
	for i := range m.chunks {
		out = append(out, m.chunks[i].Get(tx)...)
	}
	return string(out)
}

// Assembly is the common interface of base and complex assemblies (both
// ends of bottom-up/top-down traversals).
type Assembly interface {
	AssemblyID() uint64
	// Level is 1 for base assemblies, 2..NumAssmLevels for complex ones.
	Level() int
	Parent() *ComplexAssembly
}

// BaseAssemblyState is a base assembly's mutable state.
type BaseAssemblyState struct {
	BuildDate  int
	Components []*CompositePart
}

// BaseAssembly is a leaf of the assembly tree (level 1).
type BaseAssembly struct {
	ID    uint64
	Super *ComplexAssembly

	state *stm.Cell[BaseAssemblyState]
}

// AssemblyID implements Assembly.
func (b *BaseAssembly) AssemblyID() uint64 { return b.ID }

// Level implements Assembly.
func (b *BaseAssembly) Level() int { return 1 }

// Parent implements Assembly.
func (b *BaseAssembly) Parent() *ComplexAssembly { return b.Super }

// State reads the base assembly's state. The returned Components slice must
// not be mutated.
func (b *BaseAssembly) State(tx stm.Tx) BaseAssemblyState { return b.state.Get(tx) }

// BuildDate reads the base assembly's build date.
func (b *BaseAssembly) BuildDate(tx stm.Tx) int { return b.state.Get(tx).BuildDate }

// Mutate applies f to the base assembly's state.
func (b *BaseAssembly) Mutate(tx stm.Tx, f func(*BaseAssemblyState)) {
	f(b.state.Mut(tx))
}

// ComplexAssemblyState is a complex assembly's mutable state. Exactly one
// of SubComplex/SubBase is non-empty: level-2 assemblies hold base
// assemblies, higher levels hold complex ones.
type ComplexAssemblyState struct {
	BuildDate  int
	SubComplex []*ComplexAssembly
	SubBase    []*BaseAssembly
}

// ComplexAssembly is an internal node of the assembly tree.
type ComplexAssembly struct {
	ID    uint64
	Lvl   int              // 2..NumAssmLevels
	Super *ComplexAssembly // nil for the root

	state *stm.Cell[ComplexAssemblyState]
}

// AssemblyID implements Assembly.
func (c *ComplexAssembly) AssemblyID() uint64 { return c.ID }

// Level implements Assembly.
func (c *ComplexAssembly) Level() int { return c.Lvl }

// Parent implements Assembly.
func (c *ComplexAssembly) Parent() *ComplexAssembly { return c.Super }

// State reads the complex assembly's state. The returned slices must not be
// mutated.
func (c *ComplexAssembly) State(tx stm.Tx) ComplexAssemblyState { return c.state.Get(tx) }

// BuildDate reads the complex assembly's build date.
func (c *ComplexAssembly) BuildDate(tx stm.Tx) int { return c.state.Get(tx).BuildDate }

// Mutate applies f to the complex assembly's state.
func (c *ComplexAssembly) Mutate(tx stm.Tx, f func(*ComplexAssemblyState)) {
	f(c.state.Mut(tx))
}

// Module is the root object. It is immutable (Appendix B.1).
type Module struct {
	ID         uint64
	Man        *Manual
	DesignRoot *ComplexAssembly
}

// Indexes are the six indexes of Table 1. Each index is a single object —
// one cell holding a whole B-tree — reproducing ASTM's conflict footprint
// (§5: "the manual and each index are represented by single objects").
//
// The build-date index has one entry per atomic part under the composite key
// DateKey(buildDate, id), ordered by date pair, then id, then the date's
// parity: changing a part's date is one Move (for a toggle, one key store in
// place), and a date range is one key range over whole pairs.
type Indexes struct {
	AtomicByID      *Index[uint64, *AtomicPart]
	AtomicByDate    *Index[uint64, *AtomicPart]
	CompositeByID   *Index[uint64, *CompositePart]
	DocumentByTitle *Index[string, *Document]
	BaseByID        *Index[uint64, *BaseAssembly]
	ComplexByID     *Index[uint64, *ComplexAssembly]
}

// Var domain tags. Every Var in the structure is tagged with the
// synchronization domain that the medium-grained locking strategy assigns
// it to; the lock-strategy tests verify that every access is covered by a
// held lock.
const (
	DomainAtomic       = "atomic"   // atomic-part states + both atomic-part indexes
	DomainComposite    = "comp"     // composite-part states
	DomainBase         = "base"     // base-assembly states
	DomainComplexPfx   = "complex:" // complex-assembly states, suffixed with the level
	DomainDocument     = "doc"      // document texts + the title index
	DomainManual       = "manual"   // manual chunks
	DomainStructureIdx = "idx"      // composite/base/complex id indexes + id pools
)

// named tags a cell's Var with its domain.
func named[T any](c *stm.Cell[T], domain string) *stm.Cell[T] {
	c.Var().SetName(domain)
	return c
}

func newIndexes(space *stm.VarSpace) *Indexes {
	return &Indexes{
		AtomicByID:      newIndex[uint64, *AtomicPart](space, DomainAtomic),
		AtomicByDate:    newIndex[uint64, *AtomicPart](space, DomainAtomic),
		CompositeByID:   newIndex[uint64, *CompositePart](space, DomainStructureIdx),
		DocumentByTitle: newIndex[string, *Document](space, DomainDocument),
		BaseByID:        newIndex[uint64, *BaseAssembly](space, DomainStructureIdx),
		ComplexByID:     newIndex[uint64, *ComplexAssembly](space, DomainStructureIdx),
	}
}
