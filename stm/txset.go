package stm

// varIndex maps *Var to a small non-negative int (an index into a parallel
// read- or write-set slice) without allocating on the hot path. It replaces
// the per-attempt make(map[*Var]...) calls that used to dominate the
// allocation profile of short transactions: STMBench7's short operations
// touch a handful of Vars, so a linear scan over an inline array beats a
// map in both time and space, while long traversals (10⁴–10⁵ reads) spill
// to an open-addressed table that is retained — and therefore allocation
// free — across attempts and across pooled transactions.
//
// The zero value is ready to use. reset() prepares the index for a new
// transaction attempt in O(1): spill slots are invalidated by bumping a
// generation stamp rather than cleared. A varIndex is not safe for
// concurrent use; like the transaction descriptor that embeds it, it
// belongs to one attempt at a time.
//
// Note on retention: the inline keys are *Vars; reset clears them, and
// engines reset their indexes before pooling a descriptor. Spill slots are
// keyed by Var id, not by pointer: the table holds no pointers at all, so a
// stale slot pins nothing — a *Var there would pin the whole NewCells slab
// the Var is part of — and the collector does not scan the table.

// inlineSetCap is the small-set fast-path capacity. 16 covers nearly every
// STMBench7 short operation's read and write set; beyond it the spill table
// takes over.
const inlineSetCap = 16

// varIndexSlot is one open-addressed spill slot. A slot is live iff its
// gen matches the index's current generation; mismatched generations read
// as empty, which is what makes reset O(1).
type varIndexSlot struct {
	gen uint64
	key uint64 // Var id: unique among the Vars one transaction may touch
	val int32
}

type varIndex struct {
	keys [inlineSetCap]*Var
	vals [inlineSetCap]int32
	n    int // live inline entries (meaningful while !spilled)

	spilled bool
	spill   []varIndexSlot // power-of-two length, nil until first spill
	gen     uint64         // current generation; slots with older gens are empty
	count   int            // live spill entries
}

// reset invalidates all entries in O(1). The spill table's storage is kept
// for reuse.
func (ix *varIndex) reset() {
	for i := 0; i < ix.n; i++ {
		ix.keys[i] = nil
	}
	ix.n = 0
	ix.spilled = false
	ix.count = 0
	ix.gen++
}

// len returns the number of live entries.
func (ix *varIndex) len() int {
	if ix.spilled {
		return ix.count
	}
	return ix.n
}

// get returns the value stored for v.
func (ix *varIndex) get(v *Var) (int32, bool) {
	if !ix.spilled {
		for i := 0; i < ix.n; i++ {
			if ix.keys[i] == v {
				return ix.vals[i], true
			}
		}
		return 0, false
	}
	mask := uint64(len(ix.spill) - 1)
	for i := hashID(v.id) & mask; ; i = (i + 1) & mask {
		s := &ix.spill[i]
		if s.gen != ix.gen {
			return 0, false
		}
		if s.key == v.id {
			return s.val, true
		}
	}
}

// put stores val for v, overwriting any previous entry.
func (ix *varIndex) put(v *Var, val int32) {
	if !ix.spilled {
		for i := 0; i < ix.n; i++ {
			if ix.keys[i] == v {
				ix.vals[i] = val
				return
			}
		}
		if ix.n < inlineSetCap {
			ix.keys[ix.n] = v
			ix.vals[ix.n] = val
			ix.n++
			return
		}
		ix.migrate()
	}
	ix.spillPut(v, val)
}

// getOrPut returns the value already stored for v (found=true), or inserts
// val and returns it (found=false) — a single scan or probe where separate
// get-then-put would pay two. This is the first-access fast path of every
// engine's read and write bookkeeping.
func (ix *varIndex) getOrPut(v *Var, val int32) (int32, bool) {
	if !ix.spilled {
		for i := 0; i < ix.n; i++ {
			if ix.keys[i] == v {
				return ix.vals[i], true
			}
		}
		if ix.n < inlineSetCap {
			ix.keys[ix.n] = v
			ix.vals[ix.n] = val
			ix.n++
			return val, false
		}
		ix.migrate()
	}
	if 4*(ix.count+1) > 3*len(ix.spill) {
		ix.grow()
	}
	mask := uint64(len(ix.spill) - 1)
	for i := hashID(v.id) & mask; ; i = (i + 1) & mask {
		s := &ix.spill[i]
		if s.gen != ix.gen {
			s.gen = ix.gen
			s.key = v.id
			s.val = val
			ix.count++
			return val, false
		}
		if s.key == v.id {
			return s.val, true
		}
	}
}

// migrate moves the inline entries into the spill table (allocating or
// growing it as needed) and switches the index to spilled mode.
func (ix *varIndex) migrate() {
	ix.spilled = true
	ix.count = 0
	if ix.spill == nil {
		ix.spill = make([]varIndexSlot, 4*inlineSetCap)
		// A fresh table has gen-0 slots; generation 0 must never be
		// current or they would read as live.
		if ix.gen == 0 {
			ix.gen = 1
		}
	}
	for i := 0; i < ix.n; i++ {
		ix.spillPut(ix.keys[i], ix.vals[i])
		ix.keys[i] = nil
	}
	ix.n = 0
}

func (ix *varIndex) spillPut(v *Var, val int32) {
	// Keep load factor under 3/4. Entries are never deleted, so growth is
	// the only structural change.
	if 4*(ix.count+1) > 3*len(ix.spill) {
		ix.grow()
	}
	mask := uint64(len(ix.spill) - 1)
	for i := hashID(v.id) & mask; ; i = (i + 1) & mask {
		s := &ix.spill[i]
		if s.gen != ix.gen {
			s.gen = ix.gen
			s.key = v.id
			s.val = val
			ix.count++
			return
		}
		if s.key == v.id {
			s.val = val
			return
		}
	}
}

// grow doubles the spill table, reinserting only the current generation's
// entries. This is the one allocating path, and it amortizes to zero in
// steady state: descriptors are pooled, so a table sized by one long
// traversal serves every later one.
func (ix *varIndex) grow() {
	old := ix.spill
	oldGen := ix.gen
	ix.spill = make([]varIndexSlot, 2*len(old))
	ix.count = 0
	mask := uint64(len(ix.spill) - 1)
	for i := range old {
		s := &old[i]
		if s.gen != oldGen {
			continue
		}
		for j := hashID(s.key) & mask; ; j = (j + 1) & mask {
			d := &ix.spill[j]
			if d.gen != ix.gen {
				d.gen = ix.gen
				d.key = s.key
				d.val = s.val
				ix.count++
				break
			}
		}
	}
}

// hashID mixes a Var's sequentially assigned id into a well-distributed
// probe start (Fibonacci hashing).
func hashID(id uint64) uint64 {
	h := id * 0x9e3779b97f4a7c15
	return h ^ h>>29
}
