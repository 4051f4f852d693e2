package stm

import (
	"errors"
	"maps"
	"runtime/debug"
	"slices"
	"testing"
)

// Allocation-regression tests: the hot-path overhaul (pooled descriptors,
// map-free access sets, batched stats) drove steady-state read-only
// transactions to 0 allocs and a transaction's first write of a Var to the
// one allocation its semantics need; these tests keep it that way. The
// bounds are per-engine semantics, not accidents:
//
//   - read-only: descriptor, read set, indexes and (for OSTM) the private
//     txState are all pooled/reused, so nothing is allocated at all.
//   - first write of a Var: the value the transaction will publish and the
//     box that publishes it, one allocation (a Cell holds a *T into its
//     box: the private copy Mut makes, or the fresh value Set stores).
//     Published snapshots are immutable and may be held by concurrent
//     readers forever, so they can never come from a pool. OSTM pays one
//     more for the locator that carries its published txState.
//   - every further write of the same Var through Mut or Update: nothing.
//     The private copy is edited in place.
//
// The tests run single-threaded with GC disabled, so the counts are
// deterministic: no concurrent commit can force a retry and no GC pause can
// empty the descriptor pools mid-measurement.

// allocBudget is the per-engine allowance for a transaction's first write
// of one Var.
var allocBudget = map[string]float64{
	"direct": 1, // value in its box (a Mut is in place: 0)
	"norec":  1, // value in its box
	"tl2":    1, // value in its box
	"ostm":   2, // value in its box + locator (carrying the txState)
}

// maxWriteAllocs is the cross-engine bound: no engine may need more than 2
// allocations for a small write transaction.
const maxWriteAllocs = 2

func setupAllocCells(t *testing.T, eng Engine) []*Cell[int] {
	t.Helper()
	cells := make([]*Cell[int], 8)
	for i := range cells {
		cells[i] = NewCell(eng.VarSpace(), i)
	}
	return cells
}

func measureAllocs(f func()) float64 {
	// Warm the descriptor pool and grow set storage to steady state before
	// counting (AllocsPerRun's own warm-up call is part of its measurement
	// loop only in old Go versions; one explicit pass is cheap insurance).
	f()
	return testing.AllocsPerRun(200, f)
}

// TestAllocCellConstructors pins what a cell costs to create: the cell (its
// Var and the Var's ownership record are part of it) and the value in the
// box that publishes it — for a NewCells slab the cells are one allocation
// between them, and InitCell, which sets up a cell inside another object,
// allocates the value's box alone.
func TestAllocCellConstructors(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	space := NewVarSpace()
	NewCell(space, 0) // registers the type's clone function
	if got := testing.AllocsPerRun(100, func() { NewCell(space, 1) }); got != 2 {
		t.Errorf("NewCell: %v allocs, want 2", got)
	}
	var c Cell[int]
	if got := testing.AllocsPerRun(100, func() { c = Cell[int]{}; InitCell(space, &c, 1) }); got != 1 {
		t.Errorf("InitCell: %v allocs, want 1", got)
	}
	for _, n := range []int{1, 8, 40} {
		inits := make([]int, n)
		if got, want := testing.AllocsPerRun(100, func() { NewCells(space, inits) }), float64(n+1); got != want {
			t.Errorf("NewCells(%d): %v allocs, want %v", n, got, want)
		}
	}
}

func TestAllocReadOnlySteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := setupAllocCells(t, eng)
			fn := func(tx Tx) error {
				for _, c := range cells {
					c.Get(tx)
				}
				return nil
			}
			if got := measureAllocs(func() { eng.Atomic(fn) }); got != 0 {
				t.Errorf("read-only transaction: %v allocs/op, want 0", got)
			}
		})
	}
}

func TestAllocSmallWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := setupAllocCells(t, eng)
			fn := func(tx Tx) error {
				cells[0].Set(tx, 7)
				return nil
			}
			got := measureAllocs(func() { eng.Atomic(fn) })
			if got > maxWriteAllocs {
				t.Errorf("small write transaction: %v allocs/op, want <= %d", got, maxWriteAllocs)
			}
			if want, ok := allocBudget[name]; ok && got > want {
				t.Errorf("small write transaction: %v allocs/op, want <= %v for %s", got, want, name)
			}
		})
	}
}

func TestAllocSmallReadWrite(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := setupAllocCells(t, eng)
			fn := func(tx Tx) error {
				for _, c := range cells[:4] {
					c.Get(tx)
				}
				cells[1].Set(tx, 9)
				return nil
			}
			got := measureAllocs(func() { eng.Atomic(fn) })
			if got > maxWriteAllocs {
				t.Errorf("read-4-write-1 transaction: %v allocs/op, want <= %d", got, maxWriteAllocs)
			}
		})
	}
}

// TestAllocCellWrites pins the Cell write contract on a struct-valued cell,
// which nothing boxes for free: the first write of a Var in a transaction
// costs the private copy in the box it is published in (plus OSTM's
// locator), and
// every further write of that Var in the same transaction costs nothing —
// through Mut, through Update with a capturing callback, and after a read.
// Under direct a Mut is in place and even the first write is free.
func TestAllocCellWrites(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type point struct{ X, Y, Date int }
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCell(eng.VarSpace(), point{X: 1000, Y: 2000, Date: 3000})
			once := func(tx Tx) error {
				c.Mut(tx).Date++
				return nil
			}
			first := measureAllocs(func() { eng.Atomic(once) })
			want := allocBudget[name]
			if name == "direct" {
				want = 0
			}
			if first > want {
				t.Errorf("first write: %v allocs/op, want <= %v", first, want)
			}
			again := func(tx Tx) error {
				c.Mut(tx).Date++
				for i := 0; i < 4; i++ {
					p := c.Mut(tx)
					p.X, p.Y = p.Y, p.X
					d := c.Get(tx).Date + i
					c.Update(tx, func(v point) point { v.Date = d; return v })
				}
				return nil
			}
			if got := measureAllocs(func() { eng.Atomic(again) }); got != first {
				t.Errorf("one write then eight more of the same Var: %v allocs/op, want %v (further writes are free)", got, first)
			}
		})
	}
}

// fwdTx forwards every call to the Tx it wraps. It is the kind of Tx
// another package writes — the benchmark's access-counting wrapper is one —
// so Cell.Mut asks it for Update(keep) and Read, the two calls the
// descriptors' one-lookup mut stands for.
type fwdTx struct{ tx Tx }

func (f *fwdTx) Read(v *Var) any                 { return f.tx.Read(v) }
func (f *fwdTx) Write(v *Var, val any)           { f.tx.Write(v, val) }
func (f *fwdTx) Update(v *Var, fn func(any) any) { f.tx.Update(v, fn) }

// TestAllocMutFastPath holds Cell.Mut's one-lookup path to the two calls it
// stands for, on every configuration of the conformance matrix. The same
// transactions run on two fresh engines of the configuration, once through
// the engine's own Tx (mut) and once through a forwarding Tx (Update, then
// Read): a commit with first writes, repeated writes and a clone, a user
// abort after a write, and a transaction that a commit between its read and
// its write aborts once (in the Mut, on every engine but direct and
// visible-reads OSTM). Both must see the same values, end with the same
// Stats — commits, aborts and every access counter — and return the same
// errors. In steady state a Mut of a Var the transaction already wrote
// allocates nothing either way.
func TestAllocMutFastPath(t *testing.T) {
	errUser := errors.New("user abort")
	newEngine := func(name string) Engine {
		if name == "direct" {
			return NewDirect()
		}
		return txEngineMakers[name]()
	}
	for _, name := range slices.Sorted(maps.Keys(engines())) {
		t.Run(name, func(t *testing.T) {
			type outcome struct {
				seen   []int
				errs   []error
				stats  Stats
				allocs float64
			}
			run := func(wrap bool) outcome {
				eng := newEngine(name)
				space := eng.VarSpace()
				plain, other := NewCell(space, 10), NewCell(space, 100)
				list := NewCellClone(space, []int{1, 2, 3}, CloneSlice[int])
				w := &fwdTx{}
				via := func(tx Tx) Tx {
					if _, ok := tx.(cellTx); !ok {
						t.Fatalf("%T has no one-lookup Mut", tx)
					}
					if wrap {
						w.tx = tx
						return w
					}
					return tx
				}
				var o outcome
				// A visible reader of other would make the writer nested
				// below arbitrate against a transaction that cannot move.
				visible := false
				if e, ok := eng.(*OSTM); ok {
					visible = e.opts.VisibleReads
				}
				attempts := 0
				bodies := []func(tx Tx) error{
					func(tx Tx) error { // first writes, a clone, repeated writes
						tx = via(tx)
						o.seen = append(o.seen, other.Get(tx))
						*plain.Mut(tx) += 5
						*plain.Mut(tx) *= 2
						l := list.Mut(tx)
						(*l)[0] = *plain.Mut(tx)
						o.seen = append(o.seen, *plain.Mut(tx), list.Get(tx)[0], (*list.Mut(tx))[2])
						plain.Update(tx, func(v int) int { return v + 1 })
						return nil
					},
					func(tx Tx) error { // a user abort after a write
						tx = via(tx)
						*plain.Mut(tx) = -1
						o.seen = append(o.seen, *plain.Mut(tx))
						return errUser
					},
					func(tx Tx) error { // aborted once, in its Mut, by a commit in between
						tx = via(tx)
						attempts++
						o.seen = append(o.seen, other.Get(tx))
						if attempts == 1 && !visible {
							o.errs = append(o.errs, eng.Atomic(func(tx Tx) error {
								other.Set(tx, other.Get(tx)+1)
								*plain.Mut(tx) += 1000
								return nil
							}))
						}
						*plain.Mut(tx) += other.Get(tx)
						o.seen = append(o.seen, *plain.Mut(tx))
						return nil
					},
					func(tx Tx) error {
						tx = via(tx)
						o.seen = append(o.seen, plain.Get(tx), list.Get(tx)[0], other.Get(tx))
						return nil
					},
				}
				for _, body := range bodies {
					o.errs = append(o.errs, eng.Atomic(body))
				}
				o.stats = eng.Stats()
				if !raceEnabled {
					defer debug.SetGCPercent(debug.SetGCPercent(-1))
					steady := func(tx Tx) error {
						tx = via(tx)
						*plain.Mut(tx) += 1
						for i := 0; i < 8; i++ {
							*plain.Mut(tx) += i
						}
						return nil
					}
					once := func(tx Tx) error {
						*plain.Mut(via(tx)) += 1
						return nil
					}
					o.allocs = measureAllocs(func() { eng.Atomic(steady) }) - measureAllocs(func() { eng.Atomic(once) })
				}
				return o
			}
			fast, slow := run(false), run(true)
			if !slices.Equal(fast.seen, slow.seen) {
				t.Errorf("values seen: %v through the engine's Tx, %v through a wrapper", fast.seen, slow.seen)
			}
			if !slices.Equal(fast.errs, slow.errs) {
				t.Errorf("outcomes: %v through the engine's Tx, %v through a wrapper", fast.errs, slow.errs)
			}
			if fast.stats != slow.stats {
				t.Errorf("Stats differ:\n engine's Tx %+v\n wrapper     %+v", fast.stats, slow.stats)
			}
			if fast.stats.Commits == 0 || fast.stats.UserAborts != 1 || (name != "direct" && name != "ostm-visible" && fast.stats.ConflictAborts == 0) {
				t.Errorf("the transactions did not run as written: %+v", fast.stats)
			}
			if fast.allocs != 0 || slow.allocs != 0 {
				t.Errorf("eight more Muts of a written Var: %v allocs/op through the engine's Tx, %v through a wrapper, want 0",
					fast.allocs, slow.allocs)
			}
		})
	}
}

// TestAllocLargeWriteSet pins what a commit may allocate per write-set
// entry beyond the first-write budget: nothing. Two hundred cells of a slab
// written through Mut in an order unrelated to their ids — OP10's write set
// on the small structure — cost two hundred first writes exactly, so
// whatever commit does to lock, order or index its write set, it does in the
// pooled descriptor's own storage. (TL2 locks the write set as it stands;
// this is the budget a sort's scratch space, or a reindexing map, would
// show up in.)
func TestAllocLargeWriteSet(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 200
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			cells := NewCells(eng.VarSpace(), make([]int, n))
			fn := func(tx Tx) error {
				for i := range cells {
					*cells[i*77%n].Mut(tx) += 1 // 77 and 200 are coprime: every cell once
				}
				return nil
			}
			want := allocBudget[name] * n
			if name == "direct" {
				want = 0 // a Mut is in place
			}
			if got := measureAllocs(func() { eng.Atomic(fn) }); got != want {
				t.Errorf("%d-write transaction: %v allocs/op, want %v (%v per first write, nothing per commit)",
					n, got, want, want/n)
			}
		})
	}
}

// TestAllocSnapshotReadOnlySteadyState pins the read-only snapshot path's
// allocation budget: 0 allocs/op steady-state on every engine, for both a
// short read and a long traversal. The path drops the read set entirely,
// so there is even less to allocate than on the Atomic read-only path —
// this test keeps the budget from regressing while the path is new, and
// the 200-Var case proves no hidden read-set (or spill-index) storage
// sneaks back in as reads grow.
func TestAllocSnapshotReadOnlySteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := eng.(SnapshotReader); !ok {
				t.Fatalf("%s: engine does not implement SnapshotReader", name)
			}
			for _, tc := range []struct {
				label string
				n     int
			}{{"read8", 8}, {"traverse200", 200}} {
				cells := make([]*Cell[int], tc.n)
				for i := range cells {
					cells[i] = NewCell(eng.VarSpace(), i)
				}
				fn := func(tx Tx) error {
					for _, c := range cells {
						c.Get(tx)
					}
					return nil
				}
				if got := measureAllocs(func() { RunReadOnly(eng, fn) }); got != 0 {
					t.Errorf("%s snapshot transaction: %v allocs/op, want 0", tc.label, got)
				}
			}
		})
	}
}

// TestAllocTracing pins the flight recorder's allocation contract on both
// sides of the nil probe. Disabled (the default every other test here
// builds): a trace-less engine costs one branch per probe site and keeps
// every budget above — this is the explicit tracing-disabled regression
// guard. Enabled: events land in rings preallocated at recorder
// construction, so even a recording engine stays at 0 read-only allocs/op
// and within the small-write budget.
func TestAllocTracing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mode := range []struct {
		label string
		rec   *TraceRecorder
	}{{"disabled", nil}, {"enabled", NewTraceRecorder(1 << 14)}} {
		for _, name := range Registered() {
			t.Run(mode.label+"/"+name, func(t *testing.T) {
				eng, err := NewWith(name, EngineOptions{Trace: mode.rec})
				if err != nil {
					t.Fatal(err)
				}
				cells := setupAllocCells(t, eng)
				readFn := func(tx Tx) error {
					for _, c := range cells {
						c.Get(tx)
					}
					return nil
				}
				if got := measureAllocs(func() { eng.Atomic(readFn) }); got != 0 {
					t.Errorf("read-only transaction: %v allocs/op, want 0", got)
				}
				if got := measureAllocs(func() { RunReadOnly(eng, readFn) }); got != 0 {
					t.Errorf("snapshot transaction: %v allocs/op, want 0", got)
				}
				writeFn := func(tx Tx) error {
					cells[0].Set(tx, 7)
					return nil
				}
				got := measureAllocs(func() { eng.Atomic(writeFn) })
				if got > maxWriteAllocs {
					t.Errorf("small write transaction: %v allocs/op, want <= %d", got, maxWriteAllocs)
				}
				if want, ok := allocBudget[name]; ok && got > want {
					t.Errorf("small write transaction: %v allocs/op, want <= %v for %s", got, want, name)
				}
			})
		}
	}
}

// TestAllocLargeReadSetSteadyState pins the other half of the pooling win:
// transactions past the inline fast path run on the spill index and grown
// read-set slices, and that storage must be retained by the pooled
// descriptor — a long traversal may not re-make maps (or re-grow tables)
// on every transaction, or on every conflict retry within one.
func TestAllocLargeReadSetSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range Registered() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			// 200 Vars: far past the inline fast path, so the spill index
			// and grown read-set slices carry the load — and must be
			// retained by the pooled descriptor.
			cells := make([]*Cell[int], 200)
			for i := range cells {
				cells[i] = NewCell(eng.VarSpace(), i)
			}
			fn := func(tx Tx) error {
				for _, c := range cells {
					c.Get(tx)
				}
				return nil
			}
			if got := measureAllocs(func() { eng.Atomic(fn) }); got != 0 {
				t.Errorf("200-read transaction: %v allocs/op, want 0 (spill storage must be pooled)", got)
			}
		})
	}
}
