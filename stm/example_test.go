package stm_test

import (
	"fmt"

	"repro/stm"
)

// ExampleNewTL2 configures TL2 with a bounded retry budget, then runs
// a read-modify-write transaction.
func ExampleNewTL2() {
	eng := stm.NewTL2(stm.EngineOptions{
		MaxRetries: 100, // Atomic returns ErrAborted past this budget
	})
	counter := stm.NewCell(eng.VarSpace(), 41)

	err := eng.Atomic(func(tx stm.Tx) error {
		counter.Update(tx, func(v int) int { return v + 1 })
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eng.Atomic(func(tx stm.Tx) error {
		fmt.Println(eng.Name(), "counter:", counter.Get(tx))
		return nil
	})
	// Output:
	// tl2 counter: 42
}

// ExampleNewNOrec configures NOrec and demonstrates its defining
// behaviour: validation is by value, so committed state is compared by
// what it holds, not by when it was written.
func ExampleNewNOrec() {
	eng := stm.NewNOrec(stm.EngineOptions{
		MaxRetries: 100,
	})
	a := stm.NewCell(eng.VarSpace(), 10)
	b := stm.NewCell(eng.VarSpace(), -10)

	err := eng.Atomic(func(tx stm.Tx) error {
		x := a.Get(tx) // joins the read set with the value observed
		b.Set(tx, -x-1)
		a.Set(tx, x+1)
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eng.Atomic(func(tx stm.Tx) error {
		fmt.Println(eng.Name(), "a:", a.Get(tx), "b:", b.Get(tx), "sum:", a.Get(tx)+b.Get(tx))
		return nil
	})
	// Output:
	// norec a: 11 b: -11 sum: 0
}

// ExampleNew resolves engines from the registry by name — how the
// benchmark's strategy layer and CLIs construct engines.
func ExampleNew() {
	for _, name := range stm.Registered() {
		eng, err := stm.New(name)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		c := stm.NewCell(eng.VarSpace(), 0)
		eng.Atomic(func(tx stm.Tx) error { c.Set(tx, 1); return nil })
		fmt.Println(eng.Name(), "ok")
	}
	// Output:
	// direct ok
	// norec ok
	// ostm ok
	// tl2 ok
}

// ExampleParseEngineSpec builds an engine from the one-line spec the
// benchmark's -g flag takes, then applies a scenario-style option list over
// it: keys present override, keys absent inherit.
func ExampleParseEngineSpec() {
	spec, err := stm.ParseEngineSpec("norec:versions=2,deadline=25ms")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	eng, err := stm.NewWith(spec.Name, spec.Options)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(eng.Name(), "built from", spec)

	spec.Options, err = spec.Options.Apply("versions=4,serial")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("overlaid:", spec)
	// Output:
	// norec built from norec:versions=2,deadline=25ms
	// overlaid: norec:versions=4,deadline=25ms,serial
}
