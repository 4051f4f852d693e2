package stm

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// sameLine reports whether the n bytes at p lie on one 64-byte cache line.
func sameLine(p unsafe.Pointer, n uintptr) bool {
	return uintptr(p)/cacheLine == (uintptr(p)+n-1)/cacheLine
}

// TestVarLayout pins the layout the allocation path was sized on: a Var is
// one 64-byte line carrying its own ownership record, a Cell is its Var and
// nothing else, and the two words a read loads — cur and own.meta — are the
// Var's first 16 bytes, which never straddle a line: not for a Var
// allocated alone, and not in a NewCells slab on either side of the
// allocator's 512-byte threshold, above which it puts an 8-byte header in
// front of a pointer-carrying object.
func TestVarLayout(t *testing.T) {
	if got := unsafe.Sizeof(Var{}); got != cacheLine {
		t.Errorf("sizeof(Var) = %d, want %d", got, cacheLine)
	}
	if c, v := unsafe.Sizeof(Cell[int]{}), unsafe.Sizeof(Var{}); c != v {
		t.Errorf("sizeof(Cell[int]) = %d, want sizeof(Var) = %d", c, v)
	}
	var v Var
	const hot = 16 // cur, own.meta
	curEnd := unsafe.Offsetof(v.cur) + unsafe.Sizeof(v.cur)
	metaEnd := unsafe.Offsetof(v.own) + unsafe.Offsetof(v.own.meta) + unsafe.Sizeof(v.own.meta)
	if curEnd > hot || metaEnd > hot {
		t.Errorf("cur ends at %d, own.meta at %d: a read leaves the Var's first %d bytes", curEnd, metaEnd, hot)
	}

	s := NewVarSpace()
	alone := []*Var{NewCell(s, 0).Var(), NewCell(s, 0).Var(), NewCell(s, 0).Var()}
	for _, v := range alone {
		if !sameLine(unsafe.Pointer(v), unsafe.Sizeof(*v)) {
			t.Errorf("Var %d allocated alone at %p spans two cache lines", v.id, v)
		}
	}
	vars := alone
	for _, n := range []int{3, 40} {
		cells := NewCells(s, make([]int, n))
		for i := range cells {
			vars = append(vars, cells[i].Var())
		}
	}
	for _, v := range vars {
		if !sameLine(unsafe.Pointer(v), hot) {
			t.Errorf("Var %d at %p: its first %d bytes straddle a cache line", v.id, v, hot)
		}
	}
}

// TestBoxLayout pins what a published value costs on every engine: a box
// is its value and nothing else, so a cell's valueBox is 16 bytes plus the
// value. For an atomic part's state (three ints, core.AtomicPartState) that
// is 40 bytes, which the allocator serves from its 48-byte size class; with
// NOrec's commit stamp and chain link on every box it was 56, in the 64-byte
// class. Those two words are a vbox's, which only a versions=K NOrec engine
// makes.
func TestBoxLayout(t *testing.T) {
	type partState struct{ X, Y, BuildDate int }
	if got := unsafe.Sizeof(box{}); got != 16 {
		t.Errorf("sizeof(box) = %d, want 16", got)
	}
	if got := unsafe.Sizeof(valueBox[partState]{}); got != 40 {
		t.Errorf("sizeof(valueBox[partState]) = %d, want 40", got)
	}
	if got, want := unsafe.Sizeof(vbox{}), unsafe.Sizeof(box{})+16; got != want {
		t.Errorf("sizeof(vbox) = %d, want %d (a box, its stamp and its link)", got, want)
	}
	if raceEnabled {
		t.Skip("race instrumentation skews allocation sizes")
	}
	const n = 1000
	if got := allocBytes(n, func() { boxSink, _ = newValueBox(partState{}, false) }); got != 48 {
		t.Errorf("a valueBox[partState] takes %v bytes of heap, want 48", got)
	}
}

// boxSink keeps the boxes TestBoxLayout allocates on the heap.
var boxSink *box

// allocBytes returns the heap bytes one call of f allocates, over n calls
// with the collector off. TotalAlloc counts every goroutine's allocations,
// so the least of a few rounds is f's own.
func allocBytes(n int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	least := math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return least
}

// TestOrecCacheLinePadding pins what the Var's padding buys: each Var's
// ownership record lies on one cache line, and in a NewCells slab no two
// neighbouring cells' records share a line, so a committer locking one cell
// never false-shares with a reader of the next. The slab sizes cover every
// size class the allocator treats differently: no header below 512 B, a
// header up to 32 KB, whole pages above.
func TestOrecCacheLinePadding(t *testing.T) {
	s := NewVarSpace()
	for _, n := range []int{1, 2, 3, 8, 40, 600} {
		cells := NewCells(s, make([]int, n))
		prev := ^uintptr(0)
		for i := range cells {
			o := &cells[i].Var().own
			line := uintptr(unsafe.Pointer(o)) / cacheLine
			if !sameLine(unsafe.Pointer(o), unsafe.Sizeof(*o)) || line == prev {
				t.Fatalf("slab of %d: record %d at %p straddles a cache line or shares cell %d's", n, i, o, i-1)
			}
			prev = line
		}
	}
}

// TestObjectGranularityIsCollisionFree: every Var carries its own ownership
// record, so no two Vars, allocated alone or in one slab, share one.
func TestObjectGranularityIsCollisionFree(t *testing.T) {
	s := NewVarSpace()
	vars := make([]*Var, 0, 512)
	for i := 0; i < 256; i++ {
		vars = append(vars, NewCell(s, i).Var())
	}
	cells := NewCells(s, make([]int, 256))
	for i := range cells {
		vars = append(vars, cells[i].Var())
	}
	seen := map[*orec]bool{}
	for _, v := range vars {
		if seen[&v.own] {
			t.Fatalf("Var %d shares an orec", v.id)
		}
		seen[&v.own] = true
	}
}

// TestVarTag round-trips the debug tag: a fresh Var has none, SetTag
// survives commits on every engine (the tag shares the orec with metadata
// the engines write), and String shows it.
func TestVarTag(t *testing.T) {
	for _, name := range Registered() {
		eng, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		v := NewCell(eng.VarSpace(), 0).Var()
		if v.Tag() != 0 {
			t.Errorf("%s: fresh Var has tag %d, want 0", name, v.Tag())
		}
		if got := v.SetTag(7); got != v || v.Tag() != 7 {
			t.Errorf("%s: SetTag(7) = %p, Tag() = %d; want %p, 7", name, got, v.Tag(), v)
		}
		for i := 1; i <= 3; i++ {
			if err := eng.Atomic(func(tx Tx) error { tx.Write(v, i); return nil }); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if v.Tag() != 7 {
			t.Errorf("%s: tag %d after three commits, want 7", name, v.Tag())
		}
		if want := fmt.Sprintf("Var(%d:7)", v.ID()); v.String() != want {
			t.Errorf("%s: String = %q, want %q", name, v.String(), want)
		}
	}
}

// TestOrecHashDistribution is the shape test for hashID: sequentially
// assigned Var ids (exactly what a VarSpace hands out) must spread evenly
// over the buckets of a power-of-two table, where the access-set indexes
// start their probes — a skewed hash would turn every lookup into a scan.
func TestOrecHashDistribution(t *testing.T) {
	const buckets = 64
	const perBucket = 128
	const n = buckets * perBucket

	counts := make([]int, buckets)
	for id := uint64(1); id <= n; id++ {
		counts[hashID(id)&(buckets-1)]++
	}
	// Fibonacci hashing over a dense id range is nearly uniform; 2x bounds
	// leave room without letting a pathological hash pass.
	for b, c := range counts {
		if c < perBucket/2 || c > perBucket*2 {
			t.Errorf("bucket %d occupancy %d outside [%d, %d]", b, c, perBucket/2, perBucket*2)
		}
	}
}

// TestNewWithOptions checks the registry plumbing: an engine honours the
// options that apply to its design and takes the rest without complaint.
func TestNewWithOptions(t *testing.T) {
	opts := EngineOptions{Versions: 4, CM: Timid{}}
	for _, name := range Registered() {
		eng, err := NewWith(name, opts)
		if err != nil {
			t.Errorf("NewWith(%q): %v", name, err)
			continue
		}
		switch e := eng.(type) {
		case *NOrec:
			if e.versions != 4 {
				t.Errorf("norec: Versions = %d, want 4", e.versions)
			}
		case *OSTM:
			if _, ok := e.opts.CM.(Timid); !ok {
				t.Errorf("ostm: CM = %v, want timid", e.opts.CM)
			}
		}
	}
	if _, err := NewWith("nope", EngineOptions{}); err == nil {
		t.Error("NewWith of unknown engine should fail")
	}
}

// TestOversizedKnobsClampInsteadOfPanicking: an absurd CLI value for the
// version-chain depth must degrade to the cap, not crash or retain
// unbounded history.
func TestOversizedKnobsClampInsteadOfPanicking(t *testing.T) {
	eng := NewNOrec(EngineOptions{Versions: maxVersions * 1000})
	if got := eng.versions; got != maxVersions {
		t.Errorf("versions=%d normalized to %d, want clamp to %d", maxVersions*1000, got, maxVersions)
	}
	if got := normalizeVersions(0); got != DefaultVersions {
		t.Errorf("zero versions normalized to %d, want %d", got, DefaultVersions)
	}
}
