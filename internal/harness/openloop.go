package harness

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/internal/sync7"
)

// maxArrivals bounds the precomputed open-loop schedule (offsets + seeds,
// ~32 bytes per arrival).
const maxArrivals = 8 << 20

// runOpenLoop is the open-loop Poisson-arrival driver. Unlike the paper's
// closed loop — where a slow operation silently throttles the offered load
// and hides queueing delay (coordinated omission) — arrivals here are
// scheduled independently of service: a deterministic Poisson process at
// o.ArrivalRate ops/s fixes every arrival's due time up front, o.Threads
// workers drain the schedule in order, and each operation's response time
// is measured from its DUE time, not from when a worker got around to it.
// An operation that sat queued behind a storm is charged that wait, which
// is what a latency percentile under offered load means.
//
// Determinism: the schedule (gaps and per-arrival RNG seeds) depends only
// on the seed and rate, and arrival i always uses rng.New(seeds[i])
// regardless of which worker serves it — so the multiset of attempted
// operations in a MaxOps-mode run is identical across runs and thread
// counts.
func runOpenLoop(o Options, ex sync7.Executor, s *core.Structure, live *liveProgress) (*Result, error) {
	profile := o.Profile()
	picker := ops.NewPicker(profile)

	offsets, seeds, total, err := buildOpenLoopSchedule(o)
	if err != nil {
		return nil, err
	}

	perThread := newThreadStats(o.Threads)
	errCh := make(chan error, o.Threads)
	var next, issued atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup

	start := time.Now()
	for t := 0; t < o.Threads; t++ {
		wg.Add(1)
		go func(st *threadStats) {
			defer wg.Done()
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				off := offsets[i]
				if o.MaxOps <= 0 && off > o.Duration {
					return // past the deadline; so is every later arrival
				}
				due := start.Add(off)
				// Overload shedding: refuse arrivals the system is too
				// far behind on rather than stretching the queue without
				// bound. Both tests are O(1) against the precomputed
				// schedule. A shed arrival still counts as issued — the
				// offered load happened — but is never executed and
				// contributes no response sample.
				if o.ShedAfter > 0 && time.Since(due) > o.ShedAfter {
					// Lateness budget: this arrival has already waited
					// longer than any acceptable response to it.
					issued.Add(1)
					st.sheds++
					live.sheds.Add(1)
					continue
				}
				if b := int64(o.QueueBound); b > 0 && i+b < int64(total) && offsets[i+b] <= time.Since(start) {
					// Queue bound: the arrival QueueBound positions
					// ahead is already due, so more than QueueBound
					// arrivals are backed up behind this one.
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
				if err := st.recordOutcome(op, end.Sub(t0), err); err != nil {
					failed.Store(true)
					errCh <- err
					return
				}
				st.resp.Record(max(end.Sub(due), 0))
			}
		}(perThread[t])
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	res := newResult(o, picker, profile, elapsed, perThread)
	res.Arrivals = issued.Load()
	return res, nil
}

// buildOpenLoopSchedule materializes the open-loop driver's arrival
// schedule. MaxOps mode issues exactly MaxOps*Threads arrivals; duration
// mode over-provisions by 25% and lets the deadline cut the tail (a
// Poisson process can run ahead of its expected count). The schedule is
// materialized up front — that is what makes arrival i deterministic no
// matter which worker serves it — so its size is capped rather than left
// to rate*duration: ~32 bytes per arrival means the cap costs ~256 MB,
// and any realistic configuration beyond it should split phases or lower
// the rate.
func buildOpenLoopSchedule(o Options) (offsets []time.Duration, seeds []uint64, total int, err error) {
	total = o.MaxOps * o.Threads
	if o.MaxOps <= 0 {
		total = int(o.ArrivalRate*o.Duration.Seconds()*1.25) + 16
	}
	if total > maxArrivals {
		return nil, nil, 0, fmt.Errorf("harness: open-loop schedule of %d arrivals exceeds the %d cap (lower ArrivalRate or Duration, or split the phase)",
			total, maxArrivals)
	}
	offsets = make([]time.Duration, total)
	seeds = make([]uint64, total)
	sr := rng.New(o.Seed ^ 0x0be7a9a1)
	elapsedSec := 0.0
	for i := range offsets {
		// Exponential inter-arrival gap: -ln(1-U)/rate, U in [0, 1).
		elapsedSec += -math.Log1p(-sr.Float64()) / o.ArrivalRate
		offsets[i] = time.Duration(elapsedSec * float64(time.Second))
		seeds[i] = sr.Uint64()
	}
	return offsets, seeds, total, nil
}

// spinSlack is how much of a wait is left to busy-spinning instead of
// time.Sleep. Sleep alone wakes ~0.5ms late on mainstream kernels, which
// would swamp the response-time percentiles of microsecond-scale
// operations with timer slack; sleeping short and spinning the remainder
// starts each arrival within a few microseconds of its due time.
const spinSlack = 500 * time.Microsecond

// waitUntil pauses the worker until due: coarse wait via time.Sleep,
// final approach via a spin loop.
func waitUntil(due time.Time) {
	if wait := time.Until(due); wait > spinSlack {
		time.Sleep(wait - spinSlack)
	}
	for !time.Now().After(due) {
	}
}
