package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyMap(t *testing.T) {
	m := New[int, string]()
	if m.Len() != 0 {
		t.Errorf("Len = %d, want 0", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Error("Get on empty map returned ok")
	}
	if _, ok := m.Delete(5); ok {
		t.Error("Delete on empty map returned ok")
	}
	if _, _, ok := m.Min(); ok {
		t.Error("Min on empty map returned ok")
	}
	if _, _, ok := m.Max(); ok {
		t.Error("Max on empty map returned ok")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPutGetDeleteSmall(t *testing.T) {
	m := New[int, int]()
	for i := 0; i < 10; i++ {
		if _, replaced := m.Put(i, i*10); replaced {
			t.Errorf("Put(%d) reported replacement", i)
		}
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := m.Get(i)
		if !ok || v != i*10 {
			t.Errorf("Get(%d) = %d,%v; want %d,true", i, v, ok, i*10)
		}
	}
	prev, replaced := m.Put(5, 999)
	if !replaced || prev != 50 {
		t.Errorf("Put replace = %d,%v; want 50,true", prev, replaced)
	}
	if m.Len() != 10 {
		t.Errorf("Len after replace = %d, want 10", m.Len())
	}
	v, ok := m.Delete(5)
	if !ok || v != 999 {
		t.Errorf("Delete(5) = %d,%v; want 999,true", v, ok)
	}
	if _, ok := m.Get(5); ok {
		t.Error("Get(5) found deleted key")
	}
	if m.Len() != 9 {
		t.Errorf("Len after delete = %d, want 9", m.Len())
	}
}

func TestLargeAscendingInsert(t *testing.T) {
	m := New[int, int]()
	const n = 10000
	for i := 0; i < n; i++ {
		m.Put(i, i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	k, v, ok := m.Min()
	if !ok || k != 0 || v != 0 {
		t.Errorf("Min = %d,%d,%v", k, v, ok)
	}
	k, v, ok = m.Max()
	if !ok || k != n-1 || v != n-1 {
		t.Errorf("Max = %d,%d,%v", k, v, ok)
	}
}

func TestLargeRandomInsertDelete(t *testing.T) {
	m := New[uint64, int]()
	oracle := map[uint64]int{}
	r := rng.New(1234)
	const ops = 30000
	for i := 0; i < ops; i++ {
		k := r.Uint64n(5000)
		switch r.Intn(3) {
		case 0, 1:
			m.Put(k, i)
			oracle[k] = i
		case 2:
			_, gotOK := m.Delete(k)
			_, wantOK := oracle[k]
			if gotOK != wantOK {
				t.Fatalf("Delete(%d) ok=%v, oracle ok=%v", k, gotOK, wantOK)
			}
			delete(oracle, k)
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle = %d", m.Len(), len(oracle))
	}
	for k, want := range oracle {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, got, ok, want)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendOrder(t *testing.T) {
	m := New[int, int]()
	r := rng.New(7)
	want := []int{}
	for i := 0; i < 2000; i++ {
		k := r.Intn(10000)
		if !m.Contains(k) {
			want = append(want, k)
		}
		m.Put(k, k)
	}
	sort.Ints(want)
	got := m.Keys()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	m := New[int, int]()
	for i := 0; i < 100; i++ {
		m.Put(i, i)
	}
	seen := 0
	m.Ascend(func(k, v int) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Errorf("early stop visited %d, want 10", seen)
	}
}

func TestRange(t *testing.T) {
	m := New[int, int]()
	for i := 0; i < 1000; i += 2 { // even keys only
		m.Put(i, i)
	}
	var got []int
	m.Range(101, 199, func(k, v int) bool {
		got = append(got, k)
		return true
	})
	var want []int
	for i := 102; i <= 198; i += 2 {
		want = append(want, i)
	}
	if len(got) != len(want) {
		t.Fatalf("Range returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range key %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Inclusive endpoints.
	got = got[:0]
	m.Range(100, 104, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 3 || got[0] != 100 || got[2] != 104 {
		t.Errorf("inclusive Range = %v, want [100 102 104]", got)
	}
	// Empty range.
	got = got[:0]
	m.Range(101, 101, func(k, v int) bool { got = append(got, k); return true })
	if len(got) != 0 {
		t.Errorf("empty Range = %v", got)
	}
	// Early stop.
	count := 0
	m.Range(0, 998, func(k, v int) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("Range early stop visited %d, want 5", count)
	}
}

func TestRangeFullSpan(t *testing.T) {
	m := New[int, int]()
	for i := 10; i < 20; i++ {
		m.Put(i, i)
	}
	count := 0
	m.Range(-100, 100, func(k, v int) bool { count++; return true })
	if count != 10 {
		t.Errorf("full-span Range visited %d, want 10", count)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New[int, int]()
	for i := 0; i < 5000; i++ {
		m.Put(i, i)
	}
	c := m.Clone()
	if c.Len() != m.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), m.Len())
	}
	// Mutate the clone heavily; the original must be untouched.
	for i := 0; i < 5000; i += 2 {
		c.Delete(i)
	}
	for i := 10000; i < 10500; i++ {
		c.Put(i, i)
	}
	if m.Len() != 5000 {
		t.Errorf("original Len changed to %d", m.Len())
	}
	for i := 0; i < 5000; i++ {
		if v, ok := m.Get(i); !ok || v != i {
			t.Fatalf("original lost key %d", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("original: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("clone: %v", err)
	}
}

func TestStringKeys(t *testing.T) {
	m := New[string, int]()
	words := []string{"mu", "alpha", "zeta", "beta", "omega", "gamma"}
	for i, w := range words {
		m.Put(w, i)
	}
	keys := m.Keys()
	if !sort.StringsAreSorted(keys) {
		t.Errorf("string keys not sorted: %v", keys)
	}
	if v, ok := m.Get("zeta"); !ok || v != 2 {
		t.Errorf("Get(zeta) = %d,%v", v, ok)
	}
}

func TestDeleteEverything(t *testing.T) {
	m := New[int, int]()
	const n = 3000
	r := rng.New(55)
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		m.Put(i, i)
	}
	for _, k := range perm {
		if _, ok := m.Delete(k); !ok {
			t.Fatalf("Delete(%d) missing", k)
		}
		if m.Len()%500 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("at len %d: %v", m.Len(), err)
			}
		}
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPropertyVsOracle drives random operation sequences against a Go map
// oracle and validates structure after every batch.
func TestPropertyVsOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	type op struct {
		Key  uint16
		Kind uint8
	}
	f := func(opsList []op) bool {
		m := New[uint16, uint16]()
		oracle := map[uint16]uint16{}
		for i, o := range opsList {
			switch o.Kind % 3 {
			case 0, 1:
				m.Put(o.Key, uint16(i))
				oracle[o.Key] = uint16(i)
			case 2:
				m.Delete(o.Key)
				delete(oracle, o.Key)
			}
		}
		if m.Len() != len(oracle) {
			return false
		}
		for k, want := range oracle {
			if got, ok := m.Get(k); !ok || got != want {
				return false
			}
		}
		ok := true
		m.Ascend(func(k, v uint16) bool {
			if want, present := oracle[k]; !present || want != v {
				ok = false
				return false
			}
			return true
		})
		return ok && m.CheckInvariants() == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyRangeMatchesSort checks Range against a sort-based oracle.
func TestPropertyRangeMatchesSort(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	f := func(keys []uint16, loRaw, hiRaw uint16) bool {
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		m := New[uint16, struct{}]()
		uniq := map[uint16]bool{}
		for _, k := range keys {
			m.Put(k, struct{}{})
			uniq[k] = true
		}
		var want []uint16
		for k := range uniq {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint16
		m.Range(lo, hi, func(k uint16, _ struct{}) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSizeAccountingNeverDrifts(t *testing.T) {
	m := New[int, int]()
	r := rng.New(77)
	live := 0
	for i := 0; i < 20000; i++ {
		k := r.Intn(300)
		if r.Bool() {
			if _, replaced := m.Put(k, i); !replaced {
				live++
			}
		} else {
			if _, ok := m.Delete(k); ok {
				live--
			}
		}
		if m.Len() != live {
			t.Fatalf("iteration %d: Len = %d, tracked = %d", i, m.Len(), live)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMove is the build-date index's update in isolation: 10 000 parts
// over 100 dates, and each iteration flips the parity of one part's date,
// parts taken in shuffled order. Under (date, id) keys the hundred other
// parts of a date lie between a flip's two keys, and Move deletes and
// inserts (Move) as the Delete and Put it replaces do (DeletePut). Under the
// pair-major keys of core.DateKey — date pair, id, parity — no key lies
// between them, and Move stores one key (MovePairMajor). T3c flips each
// part four times in a row, and the three flips after the first start at the
// map's finger instead of the root (MovePairMajorRepeat).
func BenchmarkMove(b *testing.B) {
	const parts, dates = 10000, 100
	dateID := func(date, id int) uint64 { return uint64(date)<<32 | uint64(id) }
	pairMajor := func(date, id int) uint64 { return uint64(date>>1)<<33 | uint64(id)<<1 | uint64(date&1) }
	move := func(m *Map[uint64, *int], from, to uint64) { m.Move(from, to) }
	for _, bc := range []struct {
		name    string
		key     func(date, id int) uint64
		move    func(m *Map[uint64, *int], from, to uint64)
		repeats int // consecutive flips of one part
	}{
		{"Move", dateID, move, 1},
		{"DeletePut", dateID, func(m *Map[uint64, *int], from, to uint64) {
			v, _ := m.Delete(from)
			m.Put(to, v)
		}, 1},
		{"MovePairMajor", pairMajor, move, 1},
		{"MovePairMajorRepeat", pairMajor, move, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			key := bc.key
			m := New[uint64, *int]()
			date := make([]int, parts)
			for id := range date {
				date[id] = 1000 + id%dates
				m.Put(key(date[id], id), new(int))
			}
			order := rng.New(3).Perm(parts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := order[i/bc.repeats%parts]
				nd := date[id] ^ 1
				bc.move(m, key(date[id], id), key(nd, id))
				date[id] = nd
			}
			b.StopTimer()
			if m.Len() != parts {
				b.Fatalf("Len = %d, want %d", m.Len(), parts)
			}
			for id, d := range date {
				if !m.Contains(key(d, id)) {
					b.Fatalf("part %d is not under date %d", id, d)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
