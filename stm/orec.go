package stm

import "sync/atomic"

// Ownership-record (orec) metadata layer.
//
// Conflict-detection metadata — TL2's versioned lock word, OSTM's locator
// slot, the visible-reads reader registry — lives in an orec, and every
// Var carries its own orec inline (Var.own). The mapping is collision free
// — one lock word, one locator slot and one reader set per object — and
// costs no allocation and no pointer load: an engine reaches a Var's
// metadata as &v.own, at a fixed offset from the Var.
//
// A Var is exactly one 64-byte cache line: its value pointer and the lock
// word are its first 16 bytes, which no Var, allocated alone or in a
// NewCells slab, has split across two lines (TestVarLayout). Slab cells are
// 64 bytes apart, so no two of them have their lock words on one line, and
// a commit to one Var does not move the line a reader of its neighbour is
// loading.
//
// NOrec deliberately has no per-location metadata (that is its design),
// and the direct engine has no conflict detection at all; neither touches
// the record's metadata fields.

// orec is one ownership record. Every field but tag is engine-specific
// metadata for the Var it is part of.
type orec struct {
	// meta is TL2's versioned lock word: bit 0 is the lock bit, the
	// remaining bits hold the version of the last committed write. It comes
	// first so it sits right behind the Var's cur (see Var.own).
	meta atomic.Uint64

	// loc is OSTM's ownership slot. A locator is installed over nil only,
	// and retired by writing its committed value back before clearing the
	// slot (see ostm.go).
	loc atomic.Pointer[locator]

	// readers is the visible-reads registry for the Var.
	readers atomic.Pointer[readerSet]

	// wb is OSTM's writeback lock: it serializes a locator's install over
	// nil against the retirement of finished locators (see retire).
	wb atomic.Uint32

	// tag is the Var's debug tag (Var.SetTag). It sits in padding the
	// record has anyway, so it costs the Var no space.
	tag uint8
}

const cacheLine = 64
