package stm

import (
	"sync/atomic"
	"unsafe"
)

// Ownership-record (orec) metadata layer.
//
// Conflict-detection metadata — TL2's versioned lock word, OSTM's locator
// slot, the visible-reads reader registry — lives in an orec, and every
// engine reaches a Var's orec through one pointer, Var.orc. Where that
// pointer leads is TL2's engine-configuration axis (STMBench7's point is
// that STM scalability is decided by exactly this kind of mechanics, so it
// should be a benchmark knob, not a constant):
//
//   - ObjectGranularity (the default): the orec is a field of the Var itself
//     (Var.own) and orc points at it. The mapping is collision free — one
//     lock word / locator slot / reader set per object — and costs no
//     allocation and no second cache line: orc, the lock word and the value
//     pointer are the Var's first 24 bytes. The price is that inline
//     records are not padded: Vars allocated side by side (a NewCells slab)
//     share cache lines where every separately allocated, padded orec used
//     to own one, so a commit to one Var can slow a reader of its neighbour.
//     Measured on the contention workload (hot-w-tl2) the layout is a net
//     gain; see README, "The allocation path".
//
//   - StripedGranularity hashes Var ids onto a fixed power-of-two table of
//     cache-line-padded slots and orc points into the table. Many Vars share
//     one orec, at the price of false conflicts: transactions with disjoint
//     Var footprints can still collide when their Vars hash to the same
//     stripe (Stats.FalseConflicts estimates how often that decides an
//     abort). A striped Var still carries its unused inline record
//     (unsafe.Sizeof(orec{}) = 48 bytes), so striping bounds the *contended*
//     metadata — the lines committers and readers fight over — and no
//     longer the footprint.
//
// The resolution is a single pointer load (Var.orc), assigned when the Var
// is created; no per-access hashing or granularity branch happens on
// transaction hot paths.
//
// OSTM runs at object granularity only: a locator covers exactly one Var,
// the orec's own. NOrec deliberately has no per-location metadata (that is
// its design), and the direct engine has no conflict detection at all. All
// three ignore this axis.

// Granularity selects the mapping from Vars to ownership records.
type Granularity int

const (
	// ObjectGranularity gives every Var its own orec, inline in the Var
	// (collision-free per-object conflict detection). This is the default.
	ObjectGranularity Granularity = iota
	// StripedGranularity hashes Vars onto a fixed table of padded orecs,
	// trading false conflicts for a bounded set of contended cache lines.
	StripedGranularity
)

func (g Granularity) String() string {
	switch g {
	case ObjectGranularity:
		return "object"
	case StripedGranularity:
		return "striped"
	default:
		return "unknown"
	}
}

// DefaultOrecStripes is the striped-table size used when OrecStripes is
// left zero: 4096 padded orecs = a 256 KiB table, independent of the number
// of Vars.
const DefaultOrecStripes = 4096

// maxOrecStripes bounds the striped table against accidental huge
// allocations (2^22 padded orecs = 256 MiB of metadata, already far past
// the point of striping — a table that large approximates object
// granularity); larger requests clamp here.
const maxOrecStripes = 1 << 22

// orec is one ownership record. Every field is engine-specific metadata
// for the Vars that map here. The record itself is unpadded — it is a field
// of every Var — and the striped table pads each slot to a cache line
// (orecSlot).
type orec struct {
	// meta is TL2's versioned lock word: bit 0 is the lock bit, the
	// remaining bits hold the version of the last committed write. It comes
	// first so an inline record's lock word sits right behind the Var's orc
	// and cur (see Var.own).
	meta atomic.Uint64

	// id is the Var id under object granularity and the stripe index under
	// striped granularity — unique within one engine either way. Striped
	// TL2 sorts its write set by it so that writes sharing a stripe are
	// adjacent when commit locks them. Nothing orders locks by it to avoid
	// deadlock: the bounded commit-time spin does that.
	id uint64

	// lastWriter is the id of the Var on whose behalf this orec's meta was
	// last locked for commit. Maintained only by striped-mode TL2, it lets
	// a conflicting reader classify the conflict as false (different Var,
	// same stripe) for Stats.FalseConflicts. Best-effort attribution: a
	// commit writing several Vars of one stripe records only the first.
	lastWriter atomic.Uint64

	// loc is OSTM's ownership slot. A locator is installed over nil only,
	// and retired by writing its committed value back before clearing the
	// slot (see ostm.go).
	loc atomic.Pointer[locator]

	// readers is the visible-reads registry for the Vars mapping here.
	readers atomic.Pointer[readerSet]

	// wb is OSTM's writeback lock: it serializes a locator's install over
	// nil against the retirement of finished locators (see retire).
	wb atomic.Uint32
}

// orecSlot is one entry of the striped table: an orec padded to a cache
// line's length, so no two stripes' records share a line (the table itself
// may start up to 16 bytes into a line: the allocator puts a header before
// a pointer-carrying array of 512 B to 32 KB).
type orecSlot struct {
	orec
	_ [cacheLine - unsafe.Sizeof(orec{})]byte
}

const cacheLine = 64

// orecTable maps Var ids to orecs for one VarSpace. The zero value is
// object granularity.
type orecTable struct {
	granularity Granularity
	stripes     []orecSlot // striped mode only; power-of-two length
	mask        uint64
}

// normalizeStripes resolves a requested stripe count to the table size
// actually built: defaulted, clamped, and rounded up to a power of two.
func normalizeStripes(stripes int) int {
	if stripes <= 0 {
		stripes = DefaultOrecStripes
	}
	if stripes > maxOrecStripes {
		stripes = maxOrecStripes
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	return n
}

// configure sets the table's granularity and (for striped mode) size.
func (t *orecTable) configure(g Granularity, stripes int) error {
	if g == ObjectGranularity {
		t.granularity = g
		t.stripes, t.mask = nil, 0
		return nil
	}
	n := normalizeStripes(stripes)
	t.granularity = StripedGranularity
	t.stripes = make([]orecSlot, n)
	for i := range t.stripes {
		t.stripes[i].id = uint64(i)
	}
	t.mask = uint64(n - 1)
	return nil
}

// bind points v at its ownership record: the id's table slot under striped
// granularity, the Var's own (fresh) inline record otherwise. Called once
// per Var at creation.
func (t *orecTable) bind(v *Var) {
	if t.granularity == StripedGranularity {
		v.orc = t.stripeFor(v.id)
		return
	}
	v.own.id = v.id
	v.orc = &v.own
}

// stripeFor returns the striped table's slot for a Var id.
func (t *orecTable) stripeFor(id uint64) *orec {
	return &t.stripes[hashID(id)&t.mask].orec
}
