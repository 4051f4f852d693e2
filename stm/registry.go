package stm

import (
	"fmt"
	"maps"
	"slices"
)

// constructors is the fixed set of engines, by name. The conformance,
// stress and property suites, the sync7 strategy layer and the comparison
// benchmarks all reach engines through Registered and NewWith rather than
// naming them, so adding an engine is its file, one row here and one in
// the sync7 strategy table.
var constructors = map[string]func(EngineOptions) Engine{
	"direct": func(EngineOptions) Engine { return NewDirect() },
	"norec":  func(o EngineOptions) Engine { return NewNOrec(o) },
	"ostm":   func(o EngineOptions) Engine { return NewOSTM(o) },
	"tl2":    func(o EngineOptions) Engine { return NewTL2(o) },
}

// New returns a fresh engine with default configuration by name, or an
// error naming the valid choices.
func New(name string) (Engine, error) {
	return NewWith(name, EngineOptions{})
}

// NewWith returns a fresh engine by name, configured with opts — the two
// halves of an EngineSpec. Engines for which an option does not apply
// ignore it (TL2 and NOrec ignore the OSTM keys, direct everything) — the
// knobs are benchmark axes, not hard requirements, so a sweep can hold them
// fixed across engines.
func NewWith(name string, opts EngineOptions) (Engine, error) {
	build, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("stm: unknown engine %q (registered: %v)", name, Registered())
	}
	return build(opts), nil
}

// Registered lists the engine names, sorted.
func Registered() []string { return slices.Sorted(maps.Keys(constructors)) }
