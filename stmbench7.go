// Package stmbench7 is a Go implementation of STMBench7 — the software
// transactional memory benchmark of Guerraoui, Kapałka and Vitek (EuroSys
// 2007) — together with everything it runs on: the OO7-derived data
// structure, the 45 benchmark operations, the coarse- and medium-grained
// locking strategies the paper uses as baselines, and three STM runtimes
// (an ASTM/DSTM-style object STM, TL2 and NOrec) available in the sibling
// stm package.
//
// # Quick start
//
//	res, err := stmbench7.Run(stmbench7.Options{
//	    Params:         stmbench7.SmallParams(),
//	    Threads:        4,
//	    Duration:       5 * time.Second,
//	    Workload:       stmbench7.ReadDominated,
//	    LongTraversals: true,
//	    StructureMods:  true,
//	    Strategy:       "medium", // or "coarse", "ostm", "tl2", "norec"
//	})
//	if err != nil { ... }
//	stmbench7.WriteReport(os.Stdout, res)
//
// The package is a thin facade over the internal implementation packages;
// everything needed to configure, run and analyze a benchmark is reachable
// from here.
package stmbench7

import (
	"io"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ops"
	"repro/internal/scenario"
	"repro/internal/sync7"
	"repro/stm"
)

// Options configures a benchmark run. See harness.Options for field
// documentation.
type Options = harness.Options

// Result is a completed benchmark run.
type Result = harness.Result

// OpResult is the per-operation measurement record.
type OpResult = harness.OpResult

// SampleError is the Appendix-A expected-vs-measured ratio record.
type SampleError = harness.SampleError

// Params sizes the benchmark data structure.
type Params = core.Params

// Workload selects the Table 2 read/update split.
type Workload = ops.Workload

// Workload types (§2.3).
const (
	ReadDominated  = ops.ReadDominated
	ReadWrite      = ops.ReadWrite
	WriteDominated = ops.WriteDominated
)

// ParseWorkload accepts the paper's CLI notation: "r", "rw", "w".
func ParseWorkload(s string) (Workload, error) { return ops.ParseWorkload(s) }

// EngineSpec is a strategy name plus the stm engine options it runs with —
// what the CLI's -g flag takes ("norec:deadline=25ms,serial"). Its two
// halves are Options.Strategy and Options.Engine.
type EngineSpec = stm.EngineSpec

// ParseEngineSpec parses the -g notation; see stm.ParseEngineSpec for the
// grammar. A bare strategy name ("medium", "tl2") is a spec with default
// options.
func ParseEngineSpec(s string) (EngineSpec, error) { return stm.ParseEngineSpec(s) }

// TinyParams returns the unit-test-scale structure preset.
func TinyParams() Params { return core.Tiny() }

// SmallParams returns the laptop-benchmark preset (≈1/20 of the paper's).
func SmallParams() Params { return core.Small() }

// MediumParams returns the paper's configuration: the OO7 "medium"
// database (100 000 atomic parts, 1 MB manual).
func MediumParams() Params { return core.Medium() }

// NamedParams resolves "tiny", "small" or "medium".
func NamedParams(name string) (Params, bool) { return core.Named(name) }

// Strategies lists the synchronization strategies (sorted): coarse,
// direct, medium, norec, ostm, tl2.
func Strategies() []string { return sync7.Strategies() }

// STMStrategies lists just the STM-backed strategies (sorted): norec,
// ostm, tl2 — the set engine-comparison sweeps iterate.
func STMStrategies() []string { return sync7.STMStrategies() }

// Run executes one benchmark run.
func Run(o Options) (*Result, error) { return harness.Run(o) }

// Setup builds the executor and data structure for the options without
// running the benchmark — callers that take several measurements on one
// structure, or drive the executor themselves, split the two.
func Setup(o Options) (sync7.Executor, *core.Structure, error) { return harness.Setup(o) }

// RunOn executes one benchmark run on a pre-built executor and structure
// (see Setup).
func RunOn(o Options, ex sync7.Executor, s *core.Structure) (*Result, error) {
	return harness.RunOn(o, ex, s)
}

// WriteReport prints the Appendix-A report for a run.
func WriteReport(w io.Writer, r *Result) { harness.WriteReport(w, r) }

// WriteJSON writes the machine-readable copy of a run's report (the CLI's
// -json): configuration, totals, per-operation counts, latency summary,
// engine counters and sampled series.
func WriteJSON(w io.Writer, r *Result) error { return harness.WriteJSON(w, r) }

// --- telemetry ------------------------------------------------------------

// TraceRecorder is the transaction flight recorder (Options.Engine.Trace):
// fixed per-shard rings of attempt-lifecycle events with logical-clock
// timestamps, exportable as Chrome Trace Event JSON. Nil disables tracing
// at zero cost.
type TraceRecorder = stm.TraceRecorder

// TraceEvent is one recorded flight-recorder event.
type TraceEvent = stm.TraceEvent

// NewTraceRecorder builds a flight recorder retaining about the given
// number of events (0 = the stm.DefaultTraceEvents default).
func NewTraceRecorder(capacity int) *TraceRecorder { return stm.NewTraceRecorder(capacity) }

// SamplePoint is one interval of a sampled telemetry time series
// (Options.SampleInterval; Result.Series).
type SamplePoint = harness.SamplePoint

// --- scenario engine ------------------------------------------------------

// Scenario is a declarative multi-phase workload; see the scenario
// package for the phase model, the JSON file format and the built-in
// library.
type Scenario = scenario.Scenario

// ScenarioPhase is one phase of a scenario: a name and the Options of
// that phase's run. A phase sets only the per-phase fields (length, worker
// count, mix, skew and driver); the run-level ones (Params, Seed,
// Strategy, Engine, SampleInterval, CollectHistograms, CheckInvariants)
// come from ScenarioRunOptions, and Validate rejects a phase that sets
// them.
type ScenarioPhase = scenario.Phase

// ScenarioRunOptions configures one scenario execution: the run-level
// fields of its embedded Options, and Threads as the worker count of
// phases that set none; the per-phase fields belong to the phases and are
// ignored. A TimeScale shrinks every phase duration.
type ScenarioRunOptions = scenario.RunOptions

// ScenarioReport is a completed scenario run.
type ScenarioReport = scenario.Report

// OperationCategory classifies operations (§3); Options.CategoryWeights,
// and so a scenario phase's weights, are keyed by it.
type OperationCategory = ops.Category

// Operation categories, re-exported for scenario weight maps.
const (
	LongTraversal         = ops.LongTraversal
	ShortTraversal        = ops.ShortTraversal
	ShortOperation        = ops.ShortOperation
	StructureModification = ops.StructureModification
)

// Scenarios lists the built-in scenario names (sorted).
func Scenarios() []string { return scenario.Names() }

// LookupScenario resolves a built-in scenario name or a JSON scenario
// file path.
func LookupScenario(nameOrPath string) (*Scenario, error) { return scenario.Lookup(nameOrPath) }

// ParseScenario decodes and validates a JSON scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario executes a scenario: all phases back to back on one shared
// structure and engine.
func RunScenario(sc *Scenario, o ScenarioRunOptions) (*ScenarioReport, error) {
	return scenario.Run(sc, o)
}

// WriteScenarioReport prints the per-phase table and cross-phase
// comparison for a completed scenario run.
func WriteScenarioReport(w io.Writer, rep *ScenarioReport) { scenario.WriteReport(w, rep) }

// WriteScenarioJSON writes the machine-readable copy of a scenario run:
// the scenario name and one WriteJSON document per phase, with the phase
// name.
func WriteScenarioJSON(w io.Writer, rep *ScenarioReport) error { return scenario.WriteJSON(w, rep) }

// OperationNames returns the 45 operation names in the paper's order.
func OperationNames() []string {
	all := ops.All()
	names := make([]string, len(all))
	for i, op := range all {
		names[i] = op.Name
	}
	return names
}
