package sync7

import (
	"fmt"
	"sort"
	"sync"

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

// Factory builds an executor from a Config. The Config's Strategy field
// is already resolved; factories read only their tuning fields.
type Factory func(cfg Config) (Executor, error)

type registration struct {
	kind    Kind
	factory Factory
}

var strategyRegistry = struct {
	mu sync.RWMutex
	m  map[string]registration
}{m: map[string]registration{}}

// Register adds a strategy under name. The executor a factory returns
// must report the same name from its Name method. Register panics on an
// empty name, a nil factory, or a duplicate — programming errors,
// caught at init time.
func Register(name string, kind Kind, factory Factory) {
	if name == "" {
		panic("sync7: Register with empty strategy name")
	}
	if factory == nil {
		panic("sync7: Register with nil factory for " + name)
	}
	strategyRegistry.mu.Lock()
	defer strategyRegistry.mu.Unlock()
	if _, dup := strategyRegistry.m[name]; dup {
		panic("sync7: duplicate strategy registration for " + name)
	}
	strategyRegistry.m[name] = registration{kind: kind, factory: factory}
}

// genericSTM wraps a registered stm engine as an STM strategy, passing
// Config.Engine through to the engine registry — engines ignore the
// options outside their design, so the same Config sweeps every engine.
func genericSTM(name string) registration {
	return registration{kind: KindSTM, factory: func(cfg Config) (Executor, error) {
		eng, err := stm.NewWith(name, cfg.Engine)
		if err != nil {
			return nil, err
		}
		return newSTMExec(eng, name), nil
	}}
}

// lookup resolves a strategy name: explicit sync7 registrations first,
// then — dynamically, so engines registered with the stm package at any
// time (not just before this package's init) are picked up — any stm
// engine, wrapped generically.
func lookup(name string) (registration, bool) {
	strategyRegistry.mu.RLock()
	reg, ok := strategyRegistry.m[name]
	strategyRegistry.mu.RUnlock()
	if ok {
		return reg, true
	}
	for _, n := range stm.Registered() {
		if n == name {
			return genericSTM(name), true
		}
	}
	return registration{}, false
}

// explicitNames returns the names with explicit sync7 registrations.
func explicitNames() map[string]Kind {
	strategyRegistry.mu.RLock()
	defer strategyRegistry.mu.RUnlock()
	names := make(map[string]Kind, len(strategyRegistry.m))
	for name, reg := range strategyRegistry.m {
		names[name] = reg.kind
	}
	return names
}

// Strategies lists the valid Config.Strategy values, sorted: every
// explicit registration plus every stm-registered engine.
func Strategies() []string {
	kinds := explicitNames()
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	for _, name := range stm.Registered() {
		if _, taken := kinds[name]; !taken {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// StrategiesOfKind lists the registered strategies of one kind, sorted.
// stm-registered engines without an explicit sync7 registration count
// as KindSTM (matching what lookup resolves them to).
func StrategiesOfKind(k Kind) []string {
	kinds := explicitNames()
	var names []string
	for name, kind := range kinds {
		if kind == k {
			names = append(names, name)
		}
	}
	if k == KindSTM {
		for _, name := range stm.Registered() {
			if _, taken := kinds[name]; !taken {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// STMStrategies lists the registered STM-backed strategies (ostm, tl2,
// norec, ...), sorted. Comparison benchmarks iterate this so a newly
// registered engine shows up in every engine-vs-engine table
// automatically.
func STMStrategies() []string { return StrategiesOfKind(KindSTM) }

// init registers the strategies that are not stm engines. STM engines are
// NOT registered here: lookup resolves them from the stm package's engine
// registry on demand, so a new engine becomes a strategy by registering
// itself with stm.Register — no change in this package, and no ordering
// constraint on when that registration happens.
func init() {
	Register("direct", KindDirect, func(Config) (Executor, error) {
		return &DirectExec{eng: stm.NewDirect()}, nil
	})
	Register("coarse", KindLock, func(Config) (Executor, error) {
		return &Coarse{eng: stm.NewDirect()}, nil
	})
	Register("medium", KindLock, func(cfg Config) (Executor, error) {
		if cfg.NumAssmLevels < 2 {
			return nil, fmt.Errorf("sync7: medium locking needs NumAssmLevels >= 2, got %d", cfg.NumAssmLevels)
		}
		return newMedium(cfg.NumAssmLevels), nil
	})
}
