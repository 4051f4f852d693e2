package sync7

import (
	"fmt"
	"slices"

	"repro/stm"
)

// Kind classifies a strategy by how it achieves (or avoids) isolation.
// Benchmarks and tests use it to pick comparable sets of strategies —
// e.g. "every STM engine" — without naming them.
type Kind int

const (
	// KindDirect is no synchronization at all; only safe single-threaded.
	KindDirect Kind = iota
	// KindLock is external locking around a pass-through engine.
	KindLock
	// KindSTM is a transactional engine, internally synchronized.
	KindSTM
)

func (k Kind) String() string {
	switch k {
	case KindDirect:
		return "direct"
	case KindLock:
		return "lock"
	case KindSTM:
		return "stm"
	default:
		return "unknown"
	}
}

// strategy is one row of the strategy table. build reads only the
// Config's tuning fields; the executor it returns reports name from its
// Name method.
type strategy struct {
	name  string
	kind  Kind
	build func(cfg Config) (Executor, error)
}

// strategies is the fixed set of strategies, sorted by name. Every stm
// engine is a row (TestRegistryKinds fails one without), and each STM
// row builds the engine of its own name.
var strategies = []strategy{
	{"coarse", KindLock, func(Config) (Executor, error) { return &Coarse{eng: stm.NewDirect()}, nil }},
	{"direct", KindDirect, func(Config) (Executor, error) { return &DirectExec{eng: stm.NewDirect()}, nil }},
	{"medium", KindLock, func(cfg Config) (Executor, error) {
		if cfg.NumAssmLevels < 2 {
			return nil, fmt.Errorf("sync7: medium locking needs NumAssmLevels >= 2, got %d", cfg.NumAssmLevels)
		}
		return newMedium(cfg.NumAssmLevels), nil
	}},
	{"norec", KindSTM, stmStrategy("norec")},
	{"ostm", KindSTM, stmStrategy("ostm")},
	{"tl2", KindSTM, stmStrategy("tl2")},
}

// stmStrategy builds the stm engine name with Config.Engine — engines
// ignore the options outside their design, so the same Config sweeps
// every engine.
func stmStrategy(name string) func(Config) (Executor, error) {
	return func(cfg Config) (Executor, error) {
		eng, err := stm.NewWith(name, cfg.Engine)
		if err != nil {
			return nil, err
		}
		return newSTMExec(eng, name), nil
	}
}

// lookup resolves a strategy name against the table.
func lookup(name string) (strategy, bool) {
	i := slices.IndexFunc(strategies, func(s strategy) bool { return s.name == name })
	if i < 0 {
		return strategy{}, false
	}
	return strategies[i], true
}

// Strategies lists the valid Config.Strategy values, sorted.
func Strategies() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// StrategiesOfKind lists the strategies of one kind, sorted.
func StrategiesOfKind(k Kind) []string {
	var names []string
	for _, s := range strategies {
		if s.kind == k {
			names = append(names, s.name)
		}
	}
	return names
}

// STMStrategies lists the STM-backed strategies (norec, ostm, tl2),
// sorted. Comparison benchmarks iterate this so every engine shows up in
// every engine-vs-engine table.
func STMStrategies() []string { return StrategiesOfKind(KindSTM) }
