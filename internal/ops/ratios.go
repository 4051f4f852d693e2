package ops

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Workload is the paper's workload type (§2.3): it sets the read-only vs
// update split of Table 2.
type Workload int

const (
	// ReadDominated: 90% read-only / 10% update operations.
	ReadDominated Workload = iota
	// ReadWrite: 60% / 40%.
	ReadWrite
	// WriteDominated: 10% / 90%.
	WriteDominated
)

func (w Workload) String() string {
	switch w {
	case ReadDominated:
		return "read-dominated"
	case ReadWrite:
		return "read-write"
	case WriteDominated:
		return "write-dominated"
	default:
		return "unknown"
	}
}

// ParseWorkload accepts the paper's CLI notation: r, rw, w.
func ParseWorkload(s string) (Workload, error) {
	switch s {
	case "r", "read-dominated":
		return ReadDominated, nil
	case "rw", "read-write":
		return ReadWrite, nil
	case "w", "write-dominated":
		return WriteDominated, nil
	default:
		return 0, fmt.Errorf("ops: unknown workload %q (want r, rw or w)", s)
	}
}

// readShare returns the read-only fraction for the workload (Table 2).
func (w Workload) readShare() float64 {
	switch w {
	case ReadDominated:
		return 0.90
	case WriteDominated:
		return 0.10
	default:
		return 0.60
	}
}

// Category shares of Table 2 (percent of all operations).
var categoryShare = map[Category]float64{
	LongTraversal:         0.05,
	ShortTraversal:        0.40,
	ShortOperation:        0.45,
	StructureModification: 0.10,
}

// Profile describes a benchmark configuration's operation mix (§2.3: the
// user gives the workload type and which operation kinds are allowed).
type Profile struct {
	Workload Workload
	// LongTraversals enables the long-traversal category
	// (--no-traversals disables it).
	LongTraversals bool
	// StructureMods enables structure modifications (--no-sms disables).
	StructureMods bool
	// Reduced applies the §5 reduced operation set used for Figure 6 and
	// Table 3's ASTM runs: it removes operations that read very many
	// objects or write the manual or the large atomic-part indexes. See
	// ReducedExclusions.
	Reduced bool
	// CategoryWeights overrides the Table 2 category shares with
	// arbitrary relative weights (they are renormalized over the enabled
	// categories, so they need not sum to 1). A category missing from
	// the map — or mapped to 0 — draws nothing. Nil keeps Table 2.
	// Scenario phases use this to reshape the mix per phase.
	CategoryWeights map[Category]float64
}

// DefaultProfile is a read-dominated run with everything enabled.
func DefaultProfile() Profile {
	return Profile{Workload: ReadDominated, LongTraversals: true, StructureMods: true}
}

// ReducedExclusions is our reading of §5's "we disabled all operations that
// acquire too many objects in read mode or modify either the large index of
// atomic parts or the manual": the manual readers/writer, the
// atomic-part-index writers, and the short operations that scan a large
// fraction of all atomic parts. What remains "resembles applications that
// are based on short queries over partially static, tree-based data
// structure" (§5). Long traversals are additionally excluded via the
// profile's LongTraversals flag.
var ReducedExclusions = map[string]bool{
	"OP2":  true, // reads ~10% of all atomic parts (date range scan)
	"OP3":  true, // reads every atomic part (full date range scan)
	"OP4":  true, // reads the whole manual
	"OP5":  true, // reads the manual object
	"OP10": true, // writes ~10% of all atomic parts
	"OP11": true, // writes the whole manual
	"OP15": true, // writes the atomic-part date index
	"SM1":  true, // writes both atomic-part indexes (creation)
	"SM2":  true, // writes both atomic-part indexes (deletion)
	"ST5":  true, // iterates the whole base-assembly index and all composites
}

// Enabled reports whether op participates in the profile.
func (p Profile) Enabled(op *Op) bool {
	if op.Category == LongTraversal && (!p.LongTraversals || p.Reduced) {
		return false
	}
	if op.Category == StructureModification && !p.StructureMods {
		return false
	}
	if p.Reduced && ReducedExclusions[op.Name] {
		return false
	}
	return true
}

// shareOf returns the relative weight of a category: the CategoryWeights
// override when set, Table 2 otherwise.
func (p Profile) shareOf(cat Category) float64 {
	if p.CategoryWeights != nil {
		return p.CategoryWeights[cat]
	}
	return categoryShare[cat]
}

// Ratios computes the expected execution ratio of every enabled operation:
// category shares from Table 2 or Profile.CategoryWeights (renormalized
// over enabled categories), the workload's read/update split within each
// traversal/operation category, and equal shares within a (category,
// kind) bucket (§3: "operations from the same category have equal
// ratios").
func (p Profile) Ratios() map[string]float64 {
	type bucket struct {
		cat Category
		ro  bool
	}
	members := map[bucket][]*Op{}
	catPresent := map[Category]bool{}
	for _, op := range All() {
		if !p.Enabled(op) {
			continue
		}
		b := bucket{op.Category, op.ReadOnly}
		members[b] = append(members[b], op)
		catPresent[op.Category] = true
	}

	// Renormalize category shares over the present categories.
	totalShare := 0.0
	for cat := range catPresent {
		totalShare += p.shareOf(cat)
	}
	out := map[string]float64{}
	if totalShare == 0 {
		return out
	}
	rs := p.Workload.readShare()
	for cat := range catPresent {
		share := p.shareOf(cat) / totalShare
		roOps := members[bucket{cat, true}]
		updOps := members[bucket{cat, false}]
		switch {
		case len(roOps) == 0 && len(updOps) == 0:
			// impossible: catPresent implies members
		case len(roOps) == 0:
			for _, op := range updOps {
				out[op.Name] = share / float64(len(updOps))
			}
		case len(updOps) == 0:
			for _, op := range roOps {
				out[op.Name] = share / float64(len(roOps))
			}
		default:
			for _, op := range roOps {
				out[op.Name] = share * rs / float64(len(roOps))
			}
			for _, op := range updOps {
				out[op.Name] = share * (1 - rs) / float64(len(updOps))
			}
		}
	}
	return out
}

// Validate rejects category weights the picker cannot draw from: a weight
// for an unknown category, a negative weight, or weights that leave no
// enabled operation a positive share (all the mass on categories the
// profile's flags disable, or none at all). Nil weights keep Table 2 and
// always pass.
func (p Profile) Validate() error {
	for cat, w := range p.CategoryWeights {
		if cat < LongTraversal || cat > StructureModification {
			return fmt.Errorf("ops: weight for unknown category %d", cat)
		}
		if w < 0 {
			return fmt.Errorf("ops: negative weight %v for %v", w, cat)
		}
	}
	for _, r := range p.Ratios() {
		if r > 0 {
			return nil
		}
	}
	return fmt.Errorf("ops: the category weights give no enabled operation a positive share")
}

// Picker draws operations according to a profile's ratios.
type Picker struct {
	ops []*Op
	cum []float64
}

// NewPicker builds a picker for the profile. Operations with a zero ratio
// (zero-weighted categories) are left out entirely, so they neither draw
// nor appear in results. It panics if the profile enables no operations
// with positive ratio, which Validate reports as an error.
func NewPicker(p Profile) *Picker {
	ratios := p.Ratios()
	names := make([]string, 0, len(ratios))
	for name, ratio := range ratios {
		if ratio > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		panic("ops: profile enables no operations")
	}
	sort.Strings(names) // deterministic order
	pk := &Picker{}
	acc := 0.0
	for _, name := range names {
		acc += ratios[name]
		pk.ops = append(pk.ops, byName[name])
		pk.cum = append(pk.cum, acc)
	}
	// Guard against floating-point shortfall.
	pk.cum[len(pk.cum)-1] = 1.0
	return pk
}

// Pick draws the next operation.
func (pk *Picker) Pick(r *rng.Rand) *Op {
	x := r.Float64()
	// Binary search over the cumulative distribution.
	lo, hi := 0, len(pk.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pk.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return pk.ops[lo]
}

// Ops returns the operations the picker can draw, in deterministic order.
func (pk *Picker) Ops() []*Op { return pk.ops }
