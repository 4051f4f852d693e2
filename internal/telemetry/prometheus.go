// Package telemetry is the observability layer over the stm engines and
// the benchmark harness: a Prometheus text-format exposition of the engine
// counters (prometheus.go), an ops HTTP endpoint serving /metrics,
// /debug/pprof/*, expvar and the flight-recorder trace (server.go), and a
// fixed-cadence time-series sampler that turns cumulative stm.Stats into
// per-interval throughput/abort/restart curves (sampler.go).
//
// The package deliberately imports only stm and the standard library: the
// harness and the CLIs layer on top of it (never the other way around), so
// wiring telemetry into a new driver is one Registry plus one Server and
// no import cycles.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/stm"
)

// statFamily maps one stm.Stats field onto a Prometheus counter family,
// named with the conventional _total suffix.
type statFamily struct {
	name string
	help string
	get  func(stm.Stats) uint64
}

// statFamilies enumerates EVERY field of stm.Stats. The coverage test
// walks the struct by reflection and fails if a field is added there
// without a row here — /metrics must never silently lag the engine.
var statFamilies = []statFamily{
	{"stm_commits_total", "Transactions committed.", func(s stm.Stats) uint64 { return s.Commits }},
	{"stm_user_aborts_total", "Transactions whose function returned an error (no retry).", func(s stm.Stats) uint64 { return s.UserAborts }},
	{"stm_conflict_aborts_total", "Attempts discarded due to conflicts.", func(s stm.Stats) uint64 { return s.ConflictAborts }},
	{"stm_reads_total", "Var reads across all attempts.", func(s stm.Stats) uint64 { return s.Reads }},
	{"stm_writes_total", "Var writes across all attempts.", func(s stm.Stats) uint64 { return s.Writes }},
	{"stm_validations_total", "Read-set entry re-checks.", func(s stm.Stats) uint64 { return s.Validations }},
	{"stm_clones_total", "Copy-on-write clones for Update calls.", func(s stm.Stats) uint64 { return s.Clones }},
	{"stm_enemy_aborts_total", "Transactions killed by a contention-manager decision.", func(s stm.Stats) uint64 { return s.EnemyAborts }},
	{"stm_lock_failures_total", "Commit-time lock acquisition failures.", func(s stm.Stats) uint64 { return s.LockFailures }},
	{"stm_false_conflicts_total", "Conflicts attributed to striped-orec collisions, not data.", func(s stm.Stats) uint64 { return s.FalseConflicts }},
	{"stm_snapshot_txs_total", "Read-only transactions served by the validation-free snapshot path.", func(s stm.Stats) uint64 { return s.SnapshotTxs }},
	{"stm_snapshot_restarts_total", "Snapshot-mode attempt restarts.", func(s stm.Stats) uint64 { return s.SnapshotRestarts }},
	{"stm_version_reads_total", "Snapshot reads served from an older committed version.", func(s stm.Stats) uint64 { return s.VersionReads }},
	{"stm_version_misses_total", "Snapshot chain walks that fell off a truncated version chain.", func(s stm.Stats) uint64 { return s.VersionMisses }},
	{"stm_version_bytes_total", "Cumulative size of superseded version boxes retained by chain linking.", func(s stm.Stats) uint64 { return s.VersionBytes }},
	{"stm_timeout_aborts_total", "Atomic calls that gave up on an expired TxDeadline.", func(s stm.Stats) uint64 { return s.TimeoutAborts }},
	{"stm_serial_fallbacks_total", "Transactions escalated to the irrevocable serial token.", func(s stm.Stats) uint64 { return s.SerialFallbacks }},
	{"stm_injected_faults_total", "FaultPlan probe firings (stalls applied and conflicts forced).", func(s stm.Stats) uint64 { return s.InjectedFaults }},
}

// gaugeVar is a caller-registered float gauge (latency percentiles, live
// throughput — anything the engine counters don't carry).
type gaugeVar struct {
	name string
	help string
	fn   func() float64
}

// Registry renders the live metric set in the Prometheus text exposition
// format: every stm.Stats counter from the installed stats source plus any
// registered gauges. It is safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	stats  func() stm.Stats
	gauges []gaugeVar
}

// NewRegistry builds a registry over a cumulative engine-stats source
// (typically ex.Engine().Stats). stats may be nil, in which case only
// registered gauges are exported.
func NewRegistry(stats func() stm.Stats) *Registry {
	return &Registry{stats: stats}
}

// SetStats installs (or replaces) the engine-stats source — how a CLI
// wires the registry before the benchmark's engine exists (serve gauges
// only, then SetStats once Setup returns).
func (r *Registry) SetStats(stats func() stm.Stats) {
	r.mu.Lock()
	r.stats = stats
	r.mu.Unlock()
}

// AddGauge registers a float gauge under the given metric name. Names must
// match the Prometheus identifier grammar ([a-zA-Z_:][a-zA-Z0-9_:]*);
// re-registering a name replaces the previous gauge.
func (r *Registry) AddGauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.gauges {
		if r.gauges[i].name == name {
			r.gauges[i] = gaugeVar{name, help, fn}
			return
		}
	}
	r.gauges = append(r.gauges, gaugeVar{name, help, fn})
}

// WriteText writes the full exposition: one # HELP line, one # TYPE line
// and one sample per family, gauges sorted by name after the fixed engine
// families.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	stats := r.stats
	gauges := make([]gaugeVar, len(r.gauges))
	copy(gauges, r.gauges)
	r.mu.Unlock()

	if stats != nil {
		s := stats()
		for _, f := range statFamilies {
			if err := writeFamily(w, f.name, f.help, "counter", float64(f.get(s))); err != nil {
				return err
			}
		}
	}
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, g := range gauges {
		if err := writeFamily(w, g.name, g.help, "gauge", g.fn()); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, name, help, kind string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, kind, name, v)
	return err
}
