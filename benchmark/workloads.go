package main

import (
	"fmt"
	"runtime"
	"sort"

	stmbench7 "repro"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
)

// workload is one row of the suite: a driver configuration plus the fixed
// amount of work one slice does. The names and their reasons are repeated
// in BENCHMARK.json; the test keeps the two lists equal.
type workload struct {
	name string
	// opts carries Workload, LongTraversals, StructureMods, Strategy and
	// SkewTheta; sliceOptions fills in the rest.
	opts stmbench7.Options
	// sliceOps is the number of operations each worker executes per slice,
	// sized for slices of roughly a third of a second on the 2-CPU reference host.
	sliceOps int
}

var workloads = []workload{
	{name: "long-rw-tl2", sliceOps: 700,
		opts: stmbench7.Options{Workload: ops.ReadWrite, LongTraversals: true, StructureMods: true, Strategy: "tl2"}},
	{name: "long-r-ostm", sliceOps: 1500,
		opts: stmbench7.Options{Workload: ops.ReadDominated, LongTraversals: true, StructureMods: true, Strategy: "ostm"}},
	{name: "short-rw-tl2", sliceOps: 2000,
		opts: stmbench7.Options{Workload: ops.ReadWrite, StructureMods: true, Strategy: "tl2"}},
	{name: "hot-w-tl2", sliceOps: 2000,
		opts: stmbench7.Options{Workload: ops.WriteDominated, StructureMods: true, Strategy: "tl2", SkewTheta: 0.9}},
	{name: "short-rw-medium", sliceOps: 2000,
		opts: stmbench7.Options{Workload: ops.ReadWrite, StructureMods: true, Strategy: "medium"}},
	{name: "short-rw-norec", sliceOps: 2000,
		opts: stmbench7.Options{Workload: ops.ReadWrite, StructureMods: true, Strategy: "norec"}},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// workers is the closed-loop client count: two, the reference host's CPU
// count, or one where only one CPU exists.
func workers() int { return min(2, runtime.NumCPU()) }

// categories are the per-category metric suffixes, indexed by ops.Category.
var categories = [...]string{"long", "st", "op", "sm"}

// mix is a workload's operation set with the exact Table 2 ratios.
type mix struct {
	ops    []*ops.Op // picker order (sorted by name)
	ratios []float64 // expected share of each op
	picker *ops.Picker
	t1     *ops.Op
}

func newMix(o stmbench7.Options) *mix {
	profile := o.Profile()
	m := &mix{picker: ops.NewPicker(profile)}
	ratios := profile.Ratios()
	m.ops = m.picker.Ops()
	if len(m.ops) > 255 {
		panic("benchmark: op index does not fit a byte")
	}
	for _, op := range m.ops {
		m.ratios = append(m.ratios, ratios[op.Name])
	}
	m.t1, _ = ops.ByName("T1")
	return m
}

// stream draws one worker's operation sequence for a slice: n operations
// holding every op type at its Table 2 share exactly (largest-remainder
// rounding), in an order shuffled by r. Fixing the counts removes the
// sampling noise of iid picks — on long-rw-tl2 one op type in 350 (T3c)
// carries 70% of the time — so two runs differ in order, ids and structure
// but not in how much of each operation they execute.
func (m *mix) stream(n int, r *rng.Rand) []uint8 {
	counts := make([]int, len(m.ops))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(m.ops))
	total := 0
	for i, p := range m.ratios {
		exact := p * float64(n)
		counts[i] = int(exact)
		total += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; total < n; i++ {
		counts[rems[i%len(rems)].idx]++
		total++
	}
	s := make([]uint8, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			s = append(s, uint8(i))
		}
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// skewSamplers is harness.skewSamplers, which the driver keeps private and
// installs only for the duration of RunOn: the zipfian hotspot over
// composite-part ids that Options.SkewTheta asks for.
func skewSamplers(p core.Params, theta float64) (comp, atom core.IDSampler) {
	nComp := p.MaxCompParts()
	z := rng.NewZipf(nComp, theta)
	per := uint64(p.NumAtomicPerComp)
	comp = func(r *rng.Rand, n uint64) uint64 { return z.Next(r) % n }
	atom = func(r *rng.Rand, n uint64) uint64 {
		return (z.Next(r)%nComp*per + r.Uint64n(per)) % n
	}
	return comp, atom
}

// mixSeed derives the seed of one numbered thing (a slice, a worker) in one
// pass from the run seed, splitmix64-style, so passes never share streams.
func mixSeed(seed uint64, pass, i int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(pass*1000003+i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
