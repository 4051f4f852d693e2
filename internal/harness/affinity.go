package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
)

// Affinity-aware open-loop scheduling.
//
// The plain open-loop driver hands arrivals to whichever worker claims
// the global cursor first, so under a zipfian hotspot every worker keeps
// touching the hot composite parts and the engines pay the full
// cache-line and conflict cost of that interleaving. The affinity driver
// (-affinity, open-loop only) keeps the SAME schedule — identical
// offsets, identical per-arrival seeds, identical operation multiset —
// but routes each arrival to the worker that owns its predicted target's
// partition of the composite-id domain: operations on the same hot
// composites then tend to serialize on one worker, turning cross-thread
// conflicts into queueing that the open-loop response-time metric
// already measures honestly.
//
// The prediction replays the arrival's private RNG exactly as the
// serving worker will (rng.New(seeds[i]), the picker draw, then the
// composite-id draw with the run's skew samplers' own math), so for the
// random-id operations that dominate skewed workloads the routed worker
// really is the one whose partition the operation hits. Operations that
// never draw a composite id (traversals from the root, etc.) still get a
// stable — if meaningless — home partition from the same replay. The
// routing is ONLY a locality hint: any worker may execute any arrival
// (work stealing below), arrival i still runs on rng.New(seeds[i])
// wherever it lands, and correctness never depends on the prediction.
//
// Work conservation: a worker serves its own partition in arrival order
// and steals from other partitions only once its own is drained (or past
// the duration cutoff). A skew-loaded partition therefore runs behind
// while cold partitions' workers finish and convert to stealers — the
// deliberate locality-versus-balance trade -affinity makes; the shed
// policy (ShedAfter/QueueBound) applies unchanged, so
// an overloaded hot partition sheds by lateness exactly like an
// overloaded plain run.
func runOpenLoopAffinity(o Options, ex sync7.Executor, s *core.Structure, live *liveProgress) (*Result, error) {
	profile := o.Profile()
	picker := ops.NewPicker(profile)

	offsets, seeds, total, err := buildOpenLoopSchedule(o)
	if err != nil {
		return nil, err
	}
	parts := buildAffinityPartitions(o, s, picker, seeds)

	perThread := make([]*threadStats, o.Threads)
	errCh := make(chan error, o.Threads)
	var issued atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup

	start := time.Now()
	for t := 0; t < o.Threads; t++ {
		perThread[t] = newThreadStats()
		perThread[t].resp = map[int64]int64{}
		wg.Add(1)
		go func(own int, st *threadStats) {
			defer wg.Done()
			for !failed.Load() {
				i, src, ok := claimAffinity(parts, own)
				if !ok {
					return // every partition drained or past the cutoff
				}
				off := offsets[i]
				if o.MaxOps <= 0 && off > o.Duration {
					// Past the deadline; partitions are in arrival order,
					// so every later claim from this one would be too.
					parts[src].closed.Store(true)
					continue
				}
				due := start.Add(off)
				// The overload policy is identical to the plain driver:
				// shed on lateness or backlog rather than queueing without
				// bound. The QueueBound probe still uses the GLOBAL
				// schedule — the bound is about total offered load, not
				// one partition's share.
				if o.ShedAfter > 0 && time.Since(due) > o.ShedAfter {
					issued.Add(1)
					st.sheds++
					live.sheds.Add(1)
					continue
				}
				if b := o.QueueBound; b > 0 && i+b < total && offsets[i+b] <= time.Since(start) {
					issued.Add(1)
					st.sheds++
					live.sheds.Add(1)
					continue
				}
				waitUntil(due)
				issued.Add(1)
				r := rng.New(seeds[i])
				op := picker.Pick(r)
				t0 := time.Now()
				_, err := ex.Execute(op, s, r)
				end := time.Now()
				if err == nil {
					live.ops.Add(1)
				}
				if err := st.recordOutcome(op.Name, end.Sub(t0), o.CollectHistograms, err); err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
				resp := end.Sub(due)
				if resp < 0 {
					resp = 0
				}
				st.resp[resp.Microseconds()]++
			}
		}(t, perThread[t])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := newResult(o, picker, profile, elapsed)
	mergeThreadStats(res, perThread, o.CollectHistograms)
	res.Arrivals = issued.Load()
	if res.Response == nil {
		res.Response = map[int64]int64{} // open-loop runs always report one
	}
	return res, nil
}

// affinityPartition is one worker's share of the schedule: the arrival
// indexes routed to it (ascending, so the owner serves them in due
// order) behind an atomic cursor any worker may claim from.
type affinityPartition struct {
	arrivals []int
	next     atomic.Int64
	// closed marks the duration cutoff: the partition's remaining
	// arrivals are all past the deadline and must not be claimed.
	closed atomic.Bool
}

func (p *affinityPartition) claim() (int, bool) {
	if p.closed.Load() {
		return 0, false
	}
	k := p.next.Add(1) - 1
	if k >= int64(len(p.arrivals)) {
		return 0, false
	}
	return p.arrivals[k], true
}

// claimAffinity claims the next arrival for worker own: from its own
// partition while any remain, then — work stealing — from the first
// other partition with pending arrivals. Returns the arrival index and
// the partition it came from.
func claimAffinity(parts []*affinityPartition, own int) (arrival, src int, ok bool) {
	if i, ok := parts[own].claim(); ok {
		return i, own, true
	}
	for d := 1; d < len(parts); d++ {
		q := (own + d) % len(parts)
		if i, ok := parts[q].claim(); ok {
			return i, q, true
		}
	}
	return 0, 0, false
}

// buildAffinityPartitions routes every scheduled arrival to the worker
// owning its predicted composite-part range. The prediction replays the
// arrival's RNG stream exactly as execution will — the picker draw
// first, then the composite draw with the same sampler math RunOn
// installs (skewSamplers' zipf-plus-shift under SkewTheta, uniform
// otherwise) — and partitions the composite-id domain into Threads
// equal contiguous ranges.
func buildAffinityPartitions(o Options, s *core.Structure, picker *ops.Picker, seeds []uint64) []*affinityPartition {
	nComp := s.P.MaxCompParts()
	var z *rng.Zipf
	var shift uint64
	if o.SkewTheta != 0 {
		z = rng.NewZipf(nComp, o.SkewTheta)
		shift = uint64(o.SkewShift * float64(nComp))
	}
	parts := make([]*affinityPartition, o.Threads)
	for p := range parts {
		parts[p] = &affinityPartition{}
	}
	n := uint64(o.Threads)
	for i, seed := range seeds {
		r := rng.New(seed)
		picker.Pick(r) // consume the op draw so the id prediction reads the same stream position
		var d uint64
		if z != nil {
			d = (z.Next(r) + shift) % nComp
		} else {
			d = r.Uint64n(nComp)
		}
		p := int(d * n / nComp)
		parts[p].arrivals = append(parts[p].arrivals, i)
	}
	return parts
}
