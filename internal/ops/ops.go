// Package ops implements the 45 operations of STMBench7 (Appendix B.2 of
// the paper): 12 long traversals (T1–T6 with variants, Q6, Q7), 10 short
// traversals (ST1–ST10), 15 short operations (OP1–OP15) and 8 structure
// modification operations (SM1–SM8), together with the workload ratio model
// of Table 2.
//
// Every operation is a pure function of (transaction, structure, RNG): it
// has no side effects outside Var/Cell writes, so it can run under the
// pass-through engine guarded by locks or as a single STM transaction —
// the paper's requirement that each operation be one atomic action (§4).
//
// Operations fail (ErrFailed) instead of blocking (§3). All failure checks
// precede the first write, so a failed operation leaves no partial state
// even under the non-rolling-back pass-through engine; the test suite
// enforces this property for every operation.
package ops

import (
	"errors"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/stm"
)

// ErrFailed is the logical failure of an operation (e.g. a random id that
// does not exist, or a structure cap reached). The enclosing transaction
// aborts without retry and the harness counts a failed operation.
var ErrFailed = errors.New("ops: operation failed")

// Category is the paper's operation taxonomy (§3).
type Category int

const (
	LongTraversal Category = iota
	ShortTraversal
	ShortOperation
	StructureModification
)

func (c Category) String() string {
	switch c {
	case LongTraversal:
		return "long-traversal"
	case ShortTraversal:
		return "short-traversal"
	case ShortOperation:
		return "short-operation"
	case StructureModification:
		return "structure-modification"
	default:
		return "unknown"
	}
}

// Op is one benchmark operation.
type Op struct {
	// Name is the paper's identifier ("T1", "ST3", "OP11", "SM8", ...).
	Name string
	// Category per §3.
	Category Category
	// Index is the operation's position in All(), assigned at
	// registration: per-operation records are arrays indexed by it.
	Index int
	// ReadOnly classifies the operation for the Table 2 read/update split.
	ReadOnly bool
	// Run executes the operation. The int result is operation-specific
	// (usually a count); ErrFailed signals logical failure.
	Run func(tx stm.Tx, s *core.Structure, r *rng.Rand) (int, error)
}

// All returns the 45 operations in the paper's order. The slice and the Ops
// are shared; callers must not mutate them.
func All() []*Op { return allOps }

// ByName returns the named operation.
func ByName(name string) (*Op, bool) {
	op, ok := byName[name]
	return op, ok
}

var allOps []*Op
var byName = map[string]*Op{}

func register(op *Op) *Op {
	if _, dup := byName[op.Name]; dup {
		panic("ops: duplicate registration of " + op.Name)
	}
	op.Index = len(allOps)
	allOps = append(allOps, op)
	byName[op.Name] = op
	return op
}
