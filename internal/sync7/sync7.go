// Package sync7 implements STMBench7's synchronization strategies (§4):
//
//   - Coarse-grained locking: one read-write lock around the whole data
//     structure.
//   - Medium-grained locking (Figure 5): one read-write lock per assembly
//     level, plus locks for all composite parts, all atomic parts, all
//     documents and the manual, plus a structure-modification isolation
//     lock taken in write mode by SM operations and in read mode by
//     everything else.
//   - STM execution: each operation runs as one transaction on an stm
//     engine (OSTM — the paper's ASTM variant — TL2, or NOrec).
//   - Direct execution: no synchronization at all, for single-threaded
//     baselines and tests.
//
// All strategies execute the same operation code: the lock strategies wrap
// a pass-through engine, the STM strategies a transactional one — exactly
// the paper's design where the core benchmark carries no concurrency
// control and a strategy is merged in at build time.
//
// The strategies are a fixed table (registry.go): New resolves
// Config.Strategy against it, and Strategies/STMStrategies enumerate it.
// Each stm engine is one STM row of it, selectable here (and in both
// CLIs) by the engine's name.
package sync7

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/rng"
	"repro/stm"
)

// Executor runs operations under one synchronization strategy. Executors
// are safe for concurrent use by many worker threads.
type Executor interface {
	// Name identifies the strategy ("coarse", "medium", "ostm", "tl2",
	// "norec", "direct").
	Name() string
	// Engine returns the stm engine operations run on. The benchmark
	// structure must be built from this engine's VarSpace.
	Engine() stm.Engine
	// Execute runs op once (to completion or logical failure). STM
	// executors retry conflicting transactions internally.
	Execute(op *ops.Op, s *core.Structure, r *rng.Rand) (int, error)
}

// Config selects and tunes a strategy.
type Config struct {
	// Strategy is any strategy name (see Strategies):
	// "coarse", "medium", "ostm", "tl2", "norec" or "direct".
	Strategy string
	// NumAssmLevels must match the structure's parameter (medium locking
	// needs one lock per level). Ignored by other strategies.
	NumAssmLevels int
	// Engine configures the stm engine behind an STM strategy — with
	// Strategy, the two halves of an stm.EngineSpec. Ignored by the lock
	// strategies and direct.
	Engine stm.EngineOptions
}

// New builds the executor for cfg by looking Config.Strategy up in the
// strategy table. Configuration errors — an unknown strategy or
// out-of-range engine options — are reported before anything is built.
func New(cfg Config) (Executor, error) {
	st, ok := lookup(cfg.Strategy)
	if !ok {
		return nil, fmt.Errorf("sync7: unknown strategy %q (want %s)", cfg.Strategy, strings.Join(Strategies(), ", "))
	}
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("sync7: %w", err)
	}
	return st.build(cfg)
}

// runOp executes the operation body through an engine, translating the
// op's logical failure into a user abort.
func runOp(eng stm.Engine, op *ops.Op, s *core.Structure, r *rng.Rand) (int, error) {
	var res int
	err := eng.Atomic(func(tx stm.Tx) error {
		var opErr error
		res, opErr = op.Run(tx, s, r)
		return opErr
	})
	return res, err
}

// DirectExec runs operations with no synchronization whatsoever. Only safe
// single-threaded; used for baselines and tests.
type DirectExec struct {
	eng *stm.Direct
}

// Name implements Executor.
func (d *DirectExec) Name() string { return "direct" }

// Engine implements Executor.
func (d *DirectExec) Engine() stm.Engine { return d.eng }

// Execute implements Executor.
func (d *DirectExec) Execute(op *ops.Op, s *core.Structure, r *rng.Rand) (int, error) {
	return runOp(d.eng, op, s, r)
}

// STMExec runs each operation as a single transaction. Operations marked
// ReadOnly are dispatched to the engine's snapshot read mode when it has
// one — the validation-free fast path for T1/T6-style traversals, which
// the engine itself turns off under its nosnap key.
type STMExec struct {
	eng  stm.Engine
	name string
	// snap is the engine's read-only snapshot capability; nil when the
	// engine does not implement stm.SnapshotReader, in which case
	// ReadOnly operations run through Atomic like everything else.
	snap stm.SnapshotReader
}

// newSTMExec wraps an engine as an STM strategy.
func newSTMExec(eng stm.Engine, name string) *STMExec {
	snap, _ := eng.(stm.SnapshotReader)
	return &STMExec{eng: eng, name: name, snap: snap}
}

// Name implements Executor.
func (e *STMExec) Name() string { return e.name }

// Engine implements Executor.
func (e *STMExec) Engine() stm.Engine { return e.eng }

// Execute implements Executor.
func (e *STMExec) Execute(op *ops.Op, s *core.Structure, r *rng.Rand) (int, error) {
	var res int
	var err error
	if op.ReadOnly && e.snap != nil {
		err = e.snap.RunReadOnly(func(tx stm.Tx) error {
			var opErr error
			res, opErr = op.Run(tx, s, r)
			return opErr
		})
	} else {
		res, err = runOp(e.eng, op, s, r)
	}
	if err != nil && !errors.Is(err, ops.ErrFailed) && !errors.Is(err, stm.ErrAborted) {
		return res, fmt.Errorf("sync7: %s: %w", op.Name, err)
	}
	return res, err
}
