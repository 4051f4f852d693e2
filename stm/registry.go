package stm

import (
	"fmt"
	"sort"
	"sync"
)

// The engine registry maps engine names to factories. Every engine in
// this package registers itself from its own file's init function, so
// adding an engine is a one-file change: the conformance, stress and
// property suites, the sync7 strategy layer and the comparison benchmarks
// all discover engines through Registered and New rather than hard-coded
// lists.
var engineRegistry = struct {
	mu        sync.RWMutex
	factories map[string]func(EngineOptions) Engine
}{factories: map[string]func(EngineOptions) Engine{}}

// Register adds an engine factory under name. The factory must return a
// fresh, independent engine on every call, configured with the options it
// is handed as far as they apply to its design, and the engine's Name
// method must return the same name it was registered under. New resolves
// the factory with zero options; NewWith passes the caller's through.
// Register panics on an empty name, a nil factory, or a duplicate
// registration — all are programming errors, caught at init time.
func Register(name string, factory func(EngineOptions) Engine) {
	if name == "" {
		panic("stm: Register with empty engine name")
	}
	if factory == nil {
		panic("stm: Register with nil factory for " + name)
	}
	engineRegistry.mu.Lock()
	defer engineRegistry.mu.Unlock()
	if _, dup := engineRegistry.factories[name]; dup {
		panic("stm: duplicate engine registration for " + name)
	}
	engineRegistry.factories[name] = factory
}

// New returns a fresh engine with default configuration by registered
// name, or an error naming the valid choices.
func New(name string) (Engine, error) {
	return NewWith(name, EngineOptions{})
}

// NewWith returns a fresh engine by registered name, configured with opts
// — the two halves of an EngineSpec. Engines for which an option does not
// apply ignore it (OSTM and TL2 ignore Versions, TL2 and NOrec the OSTM
// keys, direct everything) — the knobs are benchmark axes, not hard
// requirements, so a sweep can hold them fixed across engines.
func NewWith(name string, opts EngineOptions) (Engine, error) {
	engineRegistry.mu.RLock()
	factory, ok := engineRegistry.factories[name]
	engineRegistry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stm: unknown engine %q (registered: %v)", name, Registered())
	}
	return factory(opts), nil
}

// Registered lists the registered engine names, sorted.
func Registered() []string {
	engineRegistry.mu.RLock()
	defer engineRegistry.mu.RUnlock()
	names := make([]string, 0, len(engineRegistry.factories))
	for name := range engineRegistry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
