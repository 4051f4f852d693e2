// Package core implements the shared data structure of STMBench7: the
// OO7-derived object graph of Figure 1 (module, assembly tree, composite
// parts, atomic-part graphs, documents, manual) together with the six
// indexes of Table 1, a deterministic builder, and a full structural
// invariant checker.
//
// Per §4 of the paper, this package contains no concurrency control of its
// own: every mutable object keeps its state in a single stm Cell (one cell
// per object — ASTM's logging granularity) and all access goes through a
// stm.Tx, which is either a pass-through (for the lock-based strategies) or
// a real transaction.
package core

// Date bounds for buildDate attributes. OP2 queries [1990, 1999] (a ~10%
// slice) and OP3 queries [1900, 1999] (everything), so dates are drawn
// uniformly from [MinDate, MaxDate].
//
// Known divergence, recorded and left alone: OO7 and STMBench7 draw build
// dates from [1000, 1999], which makes OP2/OP10 select about 1 % of the
// atomic parts and OP3 about 10 %. With MinDate = 1900 they select ~10 % and
// ~100 %, so the date-range operations here are ten times as heavy as the
// paper's. Moving MinDate changes every seeded workload of BENCHMARK.json
// and belongs in a change of its own that re-measures the baseline.
const (
	MinDate = 1900
	MaxDate = 1999
)

// The date range must start on an even date and end on an odd one: that is
// what keeps ToggleDate inside a pair {2k, 2k+1} and the build-date index's
// toggle to one key store (DateKey). Each line fails to compile ("constant
// -1 overflows uint") if its bound has the wrong parity.
const (
	_ = uint(-(MinDate & 1))
	_ = uint(MaxDate&1 - 1)
)

// Params sizes the structure. The paper uses the "medium" OO7 configuration
// (see Medium); tests and CI-scale runs use the smaller presets.
type Params struct {
	// NumAssmLevels is the height of the assembly tree including the base
	// level: base assemblies are level 1, the root complex assembly is
	// level NumAssmLevels. Must be >= 2.
	NumAssmLevels int
	// NumAssmPerAssm is the assembly-tree fan-out.
	NumAssmPerAssm int
	// NumCompPerAssm is how many composite parts each base assembly links.
	NumCompPerAssm int
	// NumCompParts is the initial size of the design library.
	NumCompParts int
	// NumAtomicPerComp is the number of atomic parts in each composite
	// part's graph.
	NumAtomicPerComp int
	// NumConnPerAtomic is the number of outgoing connections per atomic
	// part (1 ring connection that keeps the graph connected plus
	// NumConnPerAtomic-1 random extras).
	NumConnPerAtomic int
	// DocumentSize is the document text length in bytes.
	DocumentSize int
	// ManualSize is the manual text length in bytes.
	ManualSize int
	// GrowthFactor caps structure growth: the id domain for composite
	// parts and assemblies is ceil(initial * GrowthFactor); structure
	// modification operations fail beyond it ("the maximum size of the
	// structure is confined", §3). It also sets the failure probability
	// of random-id lookups. Values <= 1 mean no growth headroom.
	GrowthFactor float64
	// GroupAtomicParts stores each composite part's whole atomic-part
	// graph state in a single cell instead of one cell per atomic part —
	// §5's "make composite parts contain, logically, all their atomic
	// parts" optimization. Traversals then open one object per composite
	// part instead of NumAtomicPerComp objects, at the price of copying
	// the whole graph state on first write.
	GroupAtomicParts bool
}

// Medium is the paper's configuration: the OO7 "medium" database confined
// to a single module (§2.2): six levels of complex assemblies (seven levels
// counting base assemblies) with fan-out three, 500 composite parts of
// 100 000 atomic parts altogether (200 each), at least three times as many
// connections, 20 000-character documents and a 1 MB manual.
func Medium() Params {
	return Params{
		NumAssmLevels:    7,
		NumAssmPerAssm:   3,
		NumCompPerAssm:   3,
		NumCompParts:     500,
		NumAtomicPerComp: 200,
		NumConnPerAtomic: 3,
		DocumentSize:     20000,
		ManualSize:       1000000,
		GrowthFactor:     1.2,
	}
}

// Small is a laptop-benchmark preset: the same shape at roughly 1/20 the
// object count (≈2 000 atomic parts).
func Small() Params {
	return Params{
		NumAssmLevels:    5,
		NumAssmPerAssm:   3,
		NumCompPerAssm:   3,
		NumCompParts:     50,
		NumAtomicPerComp: 40,
		NumConnPerAtomic: 3,
		DocumentSize:     1000,
		ManualSize:       40000,
		GrowthFactor:     1.2,
	}
}

// Tiny is the unit-test preset (≈100 atomic parts); everything is still
// structurally faithful, just small.
func Tiny() Params {
	return Params{
		NumAssmLevels:    3,
		NumAssmPerAssm:   3,
		NumCompPerAssm:   2,
		NumCompParts:     10,
		NumAtomicPerComp: 10,
		NumConnPerAtomic: 3,
		DocumentSize:     200,
		ManualSize:       2000,
		GrowthFactor:     1.5,
	}
}

// Named returns the preset with the given name ("tiny", "small", "medium").
func Named(name string) (Params, bool) {
	switch name {
	case "tiny":
		return Tiny(), true
	case "small":
		return Small(), true
	case "medium":
		return Medium(), true
	default:
		return Params{}, false
	}
}

// InitialComplexAssemblies is the number of complex assemblies the builder
// creates: a full tree of fan-out NumAssmPerAssm with levels 2..NumAssmLevels.
func (p Params) InitialComplexAssemblies() int {
	n, levelCount := 0, 1
	for lvl := p.NumAssmLevels; lvl >= 2; lvl-- {
		n += levelCount
		levelCount *= p.NumAssmPerAssm
	}
	return n
}

// InitialBaseAssemblies is the number of base assemblies the builder
// creates (the leaf level of the full tree).
func (p Params) InitialBaseAssemblies() int {
	n := 1
	for lvl := p.NumAssmLevels; lvl >= 2; lvl-- {
		n *= p.NumAssmPerAssm
	}
	return n
}

func capOf(initial int, factor float64) uint64 {
	if factor < 1 {
		factor = 1
	}
	c := uint64(float64(initial)*factor + 0.999999)
	if c < uint64(initial) {
		c = uint64(initial)
	}
	return c
}

// MaxCompParts is the composite-part id domain: [1, MaxCompParts].
func (p Params) MaxCompParts() uint64 { return capOf(p.NumCompParts, p.GrowthFactor) }

// MaxBaseAssemblies is the base-assembly id domain.
func (p Params) MaxBaseAssemblies() uint64 {
	return capOf(p.InitialBaseAssemblies(), p.GrowthFactor)
}

// MaxComplexAssemblies is the complex-assembly id domain.
func (p Params) MaxComplexAssemblies() uint64 {
	return capOf(p.InitialComplexAssemblies(), p.GrowthFactor)
}

// MaxAtomicParts is the atomic-part id domain. Atomic-part ids are derived
// from their composite part's id (composite c owns ids
// (c-1)*NumAtomicPerComp+1 .. c*NumAtomicPerComp), so the domain follows
// the composite-part cap.
func (p Params) MaxAtomicParts() uint64 {
	return p.MaxCompParts() * uint64(p.NumAtomicPerComp)
}

// Validate reports obviously broken parameter combinations.
func (p Params) Validate() error {
	switch {
	case p.NumAssmLevels < 2:
		return errParams("NumAssmLevels must be >= 2")
	case p.NumAssmPerAssm < 1:
		return errParams("NumAssmPerAssm must be >= 1")
	case p.NumCompPerAssm < 1:
		return errParams("NumCompPerAssm must be >= 1")
	case p.NumCompParts < 1:
		return errParams("NumCompParts must be >= 1")
	case p.NumAtomicPerComp < 1:
		return errParams("NumAtomicPerComp must be >= 1")
	case p.NumConnPerAtomic < 1:
		return errParams("NumConnPerAtomic must be >= 1")
	case p.DocumentSize < 10:
		return errParams("DocumentSize must be >= 10")
	case p.ManualSize < 10:
		return errParams("ManualSize must be >= 10")
	case p.MaxAtomicParts() >= 1<<dateKeyIDBits:
		return errParams("more atomic-part ids than a build-date index key holds")
	}
	return nil
}

type errParams string

func (e errParams) Error() string { return "core: invalid params: " + string(e) }
