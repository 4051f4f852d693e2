package core

import (
	"repro/stm"
)

// AtomicPartState is the mutable state of an atomic part: the non-indexed
// attributes x and y and the indexed buildDate. (Connections are immutable
// per Appendix B.1 and live in the composite part's graph slabs.)
type AtomicPartState struct {
	X, Y      int
	BuildDate int
}

// AtomicPart is a node of a composite part's graph. Its graph links (To,
// From, PartOf) are fixed at creation: STMBench7 creates and deletes whole
// graphs (SM1/SM2) but never rewires one, and a connection never leaves its
// composite part.
//
// That is what lets BuildCompositePart allocate a graph as a few slabs — the
// parts with their state cells inside them, the connections, and one index
// slab for every part's incoming connections — so an AtomicPart is an
// interior pointer, and the graph's edges hold no pointer at all: a
// Connection names its end points by slot, and the collector never scans the
// connection and index slabs. Reading a part's state from an index leaf is
// then two dependent loads: the part, whose cell holds the box pointer, and
// the box, which holds the value (stm.InitCell). Slab lifetime is
// composite-part lifetime, and the other side of that is retention: one stray
// pointer to a part of a deleted composite part (a stale slot in an index
// node, a pooled scratch buffer) pins its whole slab, 3.75 KB of parts and
// cells at Small. Holders that outlive a transaction must drop such pointers
// (TestDeletedGraphIsCollected). A state value's box is an allocation of its
// own, and a *AtomicPartState held from Mutate pins that box, not the slab.
type AtomicPart struct {
	ID     uint64
	PartOf *CompositePart

	// slot is the part's index in PartOf.Parts, in both representations.
	slot int
	// grouped is the §5 "GroupAtomicParts" optimization: the whole graph's
	// states live in one cell on the composite part (PartOf.groupStates),
	// slot indexes this part's, and state stays the zero cell, 64 bytes a
	// part that layout pays for nothing.
	grouped bool

	// state is the paper-faithful one-object-per-part representation,
	// embedded. The fields above fill the part's first 32 bytes, so with the
	// 64-byte cell a part is 96 bytes, and in a slab, which starts on a line
	// or 8 bytes into one (behind the allocator's header), every cell starts
	// 0–8 or 32–40 bytes into a line: its hot 16 bytes, the box pointer and
	// the lock word, never straddle two (TestAtomicPartLayout).
	state stm.Cell[AtomicPartState]
}

// Slot returns the part's index in PartOf.Parts. Connections never leave a
// composite part, so a set of the parts one graph search reaches can be a
// bitset over slots.
func (p *AtomicPart) Slot() int { return p.slot }

// To returns the part's outgoing connections, ring edge first, then the
// extras: a view into its composite part's connection slab, which must not be
// mutated. A connection's To is a slot in PartOf.Parts.
func (p *AtomicPart) To() []Connection {
	cp := p.PartOf
	lo := p.slot * cp.outDegree
	return cp.conns[lo : lo+cp.outDegree : lo+cp.outDegree]
}

// From returns the part's incoming connections as indexes into
// PartOf.Conns(), in connection order: a view into the composite part's index
// slab, which must not be mutated.
func (p *AtomicPart) From() []int32 {
	in := p.PartOf.in
	return in[in[p.slot]:in[p.slot+1]]
}

// State reads the part's mutable attributes.
func (p *AtomicPart) State(tx stm.Tx) AtomicPartState {
	if p.grouped {
		return p.PartOf.groupStates.Get(tx)[p.slot]
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
	if p.grouped {
		f(&(*p.PartOf.groupStates.Mut(tx))[p.slot])
		return
	}
	f(p.state.Mut(tx))
}

// SwapXY is the paper's non-indexed update: exchange x and y.
func (p *AtomicPart) SwapXY(tx stm.Tx) {
	p.Mutate(tx, func(s *AtomicPartState) { s.X, s.Y = s.Y, s.X })
}

// Connection links two atomic parts of one composite part, named by their
// slots in its Parts. Connections are immutable (Appendix B.1). There are
// NumConnPerAtomic per atomic part, which makes them the most numerous object
// of the structure, so a connection holds no pointer — the collector skips
// the slab they live in — and its type is a one-byte index into connTypes,
// not the string: the struct is 16 bytes.
type Connection struct {
	From, To int32
	Length   int32
	kind     uint8
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

	// The graph's edges, two pointer-free slabs. Part i's outgoing
	// connections are conns[i*outDegree:][:outDegree]. in starts with
	// len(Parts)+1 offsets into itself; in[in[i]:in[i+1]] are the indexes in
	// conns of part i's incoming connections.
	conns     []Connection
	in        []int32
	outDegree int

	state *stm.Cell[CompositePartState]
	// groupStates backs the parts' shared state cell when
	// Params.GroupAtomicParts is on (nil otherwise).
	groupStates *stm.Cell[[]AtomicPartState]
}

// Conns returns every connection of the part's graph, part by part in slot
// order; AtomicPart.From indexes it. The slab must not be mutated.
func (c *CompositePart) Conns() []Connection { return c.conns }

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

// Manual is the module's manual: the paper's pathological single large
// object. Its text is one cell, read and written whole like a Document's.
type Manual struct {
	ID    uint64
	Title string

	text *stm.Cell[string]
}

// Text reads the manual text.
func (m *Manual) Text(tx stm.Tx) string { return m.text.Get(tx) }

// SetText replaces the manual text.
func (m *Manual) SetText(tx stm.Tx, s string) { m.text.Set(tx, s) }

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

// Domain is a Var's synchronization domain: the part of the structure the
// medium-grained locking strategy assigns it to. Every Var in the structure
// carries its domain as its stm tag (Var.SetTag); the lock-strategy tests
// read it back to verify that every access is covered by a held lock.
type Domain uint8

// The domains. The zero tag is an untagged Var.
const (
	DomainAtomic       Domain = iota + 1 // atomic-part states + both atomic-part indexes
	DomainComposite                      // composite-part states
	DomainBase                           // base-assembly states
	DomainComplex                        // complex-assembly states, every level
	DomainDocument                       // document texts + the title index
	DomainManual                         // the manual text
	DomainStructureIdx                   // composite/base/complex id indexes + id pools
)

// named tags a cell's Var with its domain.
func named[T any](c *stm.Cell[T], d Domain) *stm.Cell[T] {
	c.Var().SetTag(uint8(d))
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
