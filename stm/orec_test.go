package stm

import (
	"sync"
	"testing"
	"unsafe"
)

func TestGranularityString(t *testing.T) {
	if ObjectGranularity.String() != "object" || StripedGranularity.String() != "striped" {
		t.Errorf("String() round-trip broken: %q %q", ObjectGranularity, StripedGranularity)
	}
	if Granularity(99).String() != "unknown" {
		t.Errorf("out-of-range String() = %q", Granularity(99))
	}
}

// sameLine reports whether the n bytes at p lie on one 64-byte cache line,
// and which.
func sameLine(p unsafe.Pointer, n uintptr) (line uintptr, ok bool) {
	first, last := uintptr(p)/cacheLine, (uintptr(p)+n-1)/cacheLine
	return first, first == last
}

// TestOrecCacheLinePadding pins the striping premise: a striped-table slot
// is exactly 64 bytes, each slot's record lies on one cache line, and no two
// slots' records share a line — so adjacent stripes never false-share.
func TestOrecCacheLinePadding(t *testing.T) {
	if got := unsafe.Sizeof(orecSlot{}); got != cacheLine {
		t.Errorf("sizeof(orecSlot) = %d, want %d", got, cacheLine)
	}
	// Every size class the allocator treats differently: no header below
	// 512 B, a header up to 32 KB, whole pages above.
	for _, stripes := range []int{1, 2, 4, 8, 16, 64, 512, DefaultOrecStripes} {
		var table orecTable
		if err := table.configure(StripedGranularity, stripes); err != nil {
			t.Fatal(err)
		}
		prev := ^uintptr(0)
		for i := range table.stripes {
			o := &table.stripes[i].orec
			line, ok := sameLine(unsafe.Pointer(o), unsafe.Sizeof(*o))
			if !ok || line == prev {
				t.Fatalf("%d stripes: record %d at %p straddles a cache line or shares slot %d's", stripes, i, o, i-1)
			}
			prev = line
		}
	}
}

// within reports whether p points into the n bytes starting at base.
func within(p, base unsafe.Pointer, n uintptr) bool {
	return uintptr(p) >= uintptr(base) && uintptr(p) < uintptr(base)+n
}

// TestVarLayout pins the layout the allocation path was sized on: a Var is
// one 96-byte object carrying its own ownership record, a Cell is its Var
// and nothing else, the three words a read loads are the Var's first 24
// bytes, and orc leads into the Var under object granularity and into the
// table under striped.
func TestVarLayout(t *testing.T) {
	if got := unsafe.Sizeof(Var{}); got > 96 {
		t.Errorf("sizeof(Var) = %d, want <= 96", got)
	}
	if c, v := unsafe.Sizeof(Cell[int]{}), unsafe.Sizeof(Var{}); c != v {
		t.Errorf("sizeof(Cell[int]) = %d, want sizeof(Var) = %d", c, v)
	}
	var v Var
	const hot = 24 // orc, cur, own.meta
	if end := unsafe.Offsetof(v.own) + unsafe.Offsetof(v.own.meta) + unsafe.Sizeof(v.own.meta); unsafe.Offsetof(v.orc) >= hot || unsafe.Offsetof(v.cur) >= hot || end > hot {
		t.Errorf("orc at %d, cur at %d, own.meta ends at %d: a read leaves the Var's first %d bytes",
			unsafe.Offsetof(v.orc), unsafe.Offsetof(v.cur), end, hot)
	}

	obj := NewVarSpace()
	striped := NewVarSpace()
	if err := striped.ConfigureOrecs(StripedGranularity, 16); err != nil {
		t.Fatal(err)
	}
	tableBytes := uintptr(len(striped.orecs.stripes)) * unsafe.Sizeof(orecSlot{})
	// Slabs on both sides of the allocator's 512-byte header threshold, and
	// cells allocated alone.
	objVars := []*Var{obj.NewVar(0, nil), NewCell(obj, 0).Var(), NewCell(obj, 0).Var()}
	for _, n := range []int{3, 40} {
		cells := NewCells(obj, make([]int, n))
		for i := range cells {
			objVars = append(objVars, cells[i].Var())
		}
	}
	for _, v := range objVars {
		if v.orc != &v.own || v.orc.id != v.id {
			t.Errorf("object granularity: Var %d: orc = %p (id %d), want its own record %p", v.id, v.orc, v.orc.id, &v.own)
		}
		if _, ok := sameLine(unsafe.Pointer(v), hot); !ok {
			t.Errorf("Var %d at %p: its first %d bytes straddle a cache line", v.id, v, hot)
		}
	}
	for _, v := range []*Var{striped.NewVar(0, nil), NewCell(striped, 0).Var(), NewCells(striped, []int{1, 2})[1].Var()} {
		if within(unsafe.Pointer(v.orc), unsafe.Pointer(v), unsafe.Sizeof(*v)) ||
			!within(unsafe.Pointer(v.orc), unsafe.Pointer(&striped.orecs.stripes[0]), tableBytes) {
			t.Errorf("striped granularity: Var %d: orc = %p, want a slot of the table", v.id, v.orc)
		}
	}
}

// TestOrecHashDistribution is the shape test: sequentially assigned Var
// ids (exactly what a VarSpace hands out) must spread evenly over the
// stripes — a skewed hash would turn one stripe into a global lock.
func TestOrecHashDistribution(t *testing.T) {
	const stripes = 64
	const perStripe = 128
	const n = stripes * perStripe

	var table orecTable
	if err := table.configure(StripedGranularity, stripes); err != nil {
		t.Fatal(err)
	}
	counts := make(map[*orec]int, stripes)
	for id := uint64(1); id <= n; id++ {
		counts[table.stripeFor(id)]++
	}
	if len(counts) != stripes {
		t.Fatalf("ids landed on %d of %d stripes", len(counts), stripes)
	}
	// Fibonacci hashing over a dense id range is nearly uniform; 2x bounds
	// leave room without letting a pathological hash pass.
	for o, c := range counts {
		if c < perStripe/2 || c > perStripe*2 {
			t.Errorf("stripe %d occupancy %d outside [%d, %d]", o.id, c, perStripe/2, perStripe*2)
		}
	}
}

func TestOrecStripesRoundedToPowerOfTwo(t *testing.T) {
	var table orecTable
	if err := table.configure(StripedGranularity, 100); err != nil {
		t.Fatal(err)
	}
	if len(table.stripes) != 128 {
		t.Errorf("stripes = %d, want 128 (rounded up)", len(table.stripes))
	}
	var def orecTable
	if err := def.configure(StripedGranularity, 0); err != nil {
		t.Fatal(err)
	}
	if len(def.stripes) != DefaultOrecStripes {
		t.Errorf("default stripes = %d, want %d", len(def.stripes), DefaultOrecStripes)
	}
}

func TestConfigureOrecsAfterVarsRejected(t *testing.T) {
	s := NewVarSpace()
	s.NewVar(1, nil)
	if err := s.ConfigureOrecs(StripedGranularity, 16); err == nil {
		t.Error("ConfigureOrecs after NewVar should fail")
	}
}

func TestObjectGranularityIsCollisionFree(t *testing.T) {
	s := NewVarSpace()
	seen := map[*orec]bool{}
	for i := 0; i < 256; i++ {
		v := s.NewVar(i, nil)
		if seen[v.orc] {
			t.Fatalf("object granularity shared an orec at var %d", i)
		}
		seen[v.orc] = true
	}
}

func TestStripedGranularityShares(t *testing.T) {
	s := NewVarSpace()
	if err := s.ConfigureOrecs(StripedGranularity, 4); err != nil {
		t.Fatal(err)
	}
	seen := map[*orec]bool{}
	for i := 0; i < 64; i++ {
		seen[s.NewVar(i, nil).orc] = true
	}
	if len(seen) > 4 {
		t.Errorf("64 vars resolved to %d orecs, want <= 4 stripes", len(seen))
	}
}

// TestTL2FalseConflictDeterministic is the satellite's two-transaction
// collision test: two transactions with disjoint Var footprints — one
// reads x, the other writes y — conflict if and only if the granularity is
// striped (here 1 stripe, so x and y must collide), and the conflict is
// attributed to FalseConflicts.
func TestTL2FalseConflictDeterministic(t *testing.T) {
	run := func(cfg TL2Config) Stats {
		eng := NewTL2With(cfg)
		x := NewCell(eng.VarSpace(), 0)
		y := NewCell(eng.VarSpace(), 0)
		attempts := 0
		err := eng.Atomic(func(tx Tx) error {
			attempts++
			_ = x.Get(tx)
			if attempts == 1 {
				// A disjoint-footprint commit to y, run to completion
				// while the outer transaction is live.
				if err := eng.Atomic(func(in Tx) error { y.Set(in, 1); return nil }); err != nil {
					t.Fatalf("inner commit: %v", err)
				}
			}
			_ = x.Get(tx) // must re-examine x's orec
			return nil
		})
		if err != nil {
			t.Fatalf("outer: %v", err)
		}
		return eng.Stats()
	}

	obj := run(TL2Config{})
	if obj.ConflictAborts != 0 || obj.FalseConflicts != 0 {
		t.Errorf("object granularity: conflicts=%d false=%d, want 0/0 (footprints are disjoint)",
			obj.ConflictAborts, obj.FalseConflicts)
	}

	str := run(TL2Config{EngineOptions: opts("striped=1")})
	if str.ConflictAborts != 1 {
		t.Errorf("striped granularity: conflicts=%d, want exactly 1 (stripe collision)", str.ConflictAborts)
	}
	if str.FalseConflicts != 1 {
		t.Errorf("striped granularity: FalseConflicts=%d, want 1", str.FalseConflicts)
	}
}

// TestStripedStressAllEngines hammers a tiny stripe table from many
// goroutines with overlapping increments — the counter total proves no
// lost updates despite constant stripe collisions. TL2 is the one engine
// with a striped mode.
func TestStripedStressAllEngines(t *testing.T) {
	const goroutines = 8
	makers := map[string]func() Engine{
		"tl2": func() Engine { return NewTL2With(TL2Config{EngineOptions: opts("striped=2")}) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			eng := mk()
			iters := stressIters(t, 1000)
			cells := make([]*Cell[int], 16)
			for i := range cells {
				cells[i] = NewCell(eng.VarSpace(), 0)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						c := cells[(g*7+i)%len(cells)]
						if err := eng.Atomic(func(tx Tx) error {
							c.Update(tx, func(v int) int { return v + 1 })
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			total := 0
			eng.Atomic(func(tx Tx) error {
				for _, c := range cells {
					total += c.Get(tx)
				}
				return nil
			})
			if total != goroutines*iters {
				t.Errorf("total = %d, want %d (lost updates under striping)", total, goroutines*iters)
			}
		})
	}
}

func TestFalseConflictRateMath(t *testing.T) {
	if got := (Stats{}).FalseConflictRate(); got != 0 {
		t.Errorf("zero stats rate = %v, want 0", got)
	}
	s := Stats{ConflictAborts: 4, FalseConflicts: 1}
	if got := s.FalseConflictRate(); got != 0.25 {
		t.Errorf("rate = %v, want 0.25", got)
	}
	over := Stats{ConflictAborts: 2, FalseConflicts: 5} // best-effort attribution can overshoot
	if got := over.FalseConflictRate(); got != 1 {
		t.Errorf("clamped rate = %v, want 1", got)
	}
}

// TestNewWithOptions checks the registry plumbing: TL2, the one engine on
// the metadata axis, honors the options; engines outside it take them and
// keep every Var on its own inline orec.
func TestNewWithOptions(t *testing.T) {
	eng, err := NewWith("tl2", EngineOptions{Granularity: StripedGranularity, OrecStripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	tl2 := eng.(*TL2)
	if !tl2.striped || len(tl2.space.orecs.stripes) != 8 {
		t.Errorf("tl2 options not honored: striped=%v stripes=%d", tl2.striped, len(tl2.space.orecs.stripes))
	}
	for _, name := range []string{"ostm", "norec", "direct"} {
		e, err := NewWith(name, EngineOptions{Granularity: StripedGranularity, OrecStripes: 8})
		if err != nil {
			t.Errorf("NewWith(%q): %v", name, err)
			continue
		}
		if v := e.VarSpace().NewVar(0, nil); v.orc != &v.own {
			t.Errorf("%s: a Var's orc = %p, want its own inline orec %p", name, v.orc, &v.own)
		}
	}
	if _, err := NewWith("nope", EngineOptions{}); err == nil {
		t.Error("NewWith of unknown engine should fail")
	}
}

// TestOversizedKnobsClampInsteadOfPanicking: an absurd CLI value for the
// table size must degrade to the cap, not crash or OOM. The
// stripe check uses the pure sizing function so the test does not have to
// allocate the 4 GiB cap for real.
func TestOversizedKnobsClampInsteadOfPanicking(t *testing.T) {
	if got := normalizeStripes(maxOrecStripes * 2); got != maxOrecStripes {
		t.Errorf("oversized stripes normalized to %d, want clamp to %d", got, maxOrecStripes)
	}
	if got := normalizeStripes(0); got != DefaultOrecStripes {
		t.Errorf("zero stripes normalized to %d, want %d", got, DefaultOrecStripes)
	}
	if got := normalizeStripes(100); got != 128 {
		t.Errorf("100 stripes normalized to %d, want 128", got)
	}
}
