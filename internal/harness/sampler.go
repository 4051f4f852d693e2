package harness

import (
	"time"

	"repro/stm"
)

// SamplePoint is one cadence interval of a running benchmark: per-interval
// deltas of the engine counters plus the live driver counters, with the
// rates already computed over the interval's measured wall-clock length.
// A slice of these is a run's time-series curve (throughput over time,
// abort rate over time, ...), emitted into the -json output and the
// per-phase reports.
type SamplePoint struct {
	// T is the end of the interval, in seconds since the sampler started.
	T float64 `json:"t"`
	// Ops is the number of successful operations the driver completed in
	// the interval.
	Ops int64 `json:"ops"`
	// OpsPerSec is Ops over the interval's measured length.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Commits and Aborts are per-interval engine counter deltas.
	Commits uint64 `json:"commits"`
	Aborts  uint64 `json:"aborts"`
	// AbortPct is the interval's conflict-abort share of attempts.
	AbortPct float64 `json:"abort_pct"`
	// SnapshotRestarts is the interval's snapshot-path restart delta.
	SnapshotRestarts uint64 `json:"snapshot_restarts"`
	// Sheds is the number of open-loop arrivals shed in the interval;
	// ShedPerSec is its rate.
	Sheds      int64   `json:"sheds"`
	ShedPerSec float64 `json:"shed_per_sec"`
	// SerialFallbacks, TimeoutAborts and InjectedFaults are the interval's
	// robustness-counter deltas.
	SerialFallbacks uint64 `json:"serial_fallbacks"`
	TimeoutAborts   uint64 `json:"timeout_aborts"`
	InjectedFaults  uint64 `json:"injected_faults"`
}

// Sampler polls a cumulative stm.Stats source and the live driver counters
// at a fixed cadence and accumulates per-interval SamplePoints. Start
// launches the polling goroutine; Stop halts it, takes one final sample
// covering the partial tail interval, and returns the curve.
type Sampler struct {
	interval time.Duration
	stats    func() stm.Stats
	ops      func() int64 // live successful-op counter
	sheds    func() int64 // live shed counter

	// points and the prev* baselines belong to the polling goroutine
	// until Stop has waited for it to exit.
	points    []SamplePoint
	start     time.Time
	prev      stm.Stats
	prevOps   int64
	prevSheds int64
	prevT     time.Time

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler polling stats, ops and sheds every interval.
// interval must be positive.
func NewSampler(interval time.Duration, stats func() stm.Stats, ops, sheds func() int64) *Sampler {
	return &Sampler{
		interval: interval,
		stats:    stats,
		ops:      ops,
		sheds:    sheds,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start records the baseline and launches the polling goroutine.
func (s *Sampler) Start() {
	s.start = time.Now()
	s.prevT = s.start
	s.prev = s.stats()
	s.prevOps = s.ops()
	s.prevSheds = s.sheds()
	go s.loop()
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// sample appends one point covering the time since the previous sample.
func (s *Sampler) sample() {
	now := time.Now()
	dt := now.Sub(s.prevT).Seconds()
	if dt <= 0 {
		return
	}
	cur := s.stats()
	d := cur.Delta(s.prev)
	ops, sheds := s.ops(), s.sheds()
	s.points = append(s.points, SamplePoint{
		T:                now.Sub(s.start).Seconds(),
		Ops:              ops - s.prevOps,
		OpsPerSec:        float64(ops-s.prevOps) / dt,
		Commits:          d.Commits,
		Aborts:           d.ConflictAborts,
		AbortPct:         100 * d.AbortRate(),
		SnapshotRestarts: d.SnapshotRestarts,
		Sheds:            sheds - s.prevSheds,
		ShedPerSec:       float64(sheds-s.prevSheds) / dt,
		SerialFallbacks:  d.SerialFallbacks,
		TimeoutAborts:    d.TimeoutAborts,
		InjectedFaults:   d.InjectedFaults,
	})
	s.prev, s.prevOps, s.prevSheds, s.prevT = cur, ops, sheds, now
}

// Stop halts the polling goroutine, takes a final sample covering the
// partial tail interval (so short runs still yield at least one point),
// and returns the curve.
func (s *Sampler) Stop() []SamplePoint {
	close(s.stop)
	<-s.done
	s.sample()
	return s.points
}
