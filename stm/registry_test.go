package stm

import (
	"strings"
	"testing"
)

func TestRegisteredContainsAllEngines(t *testing.T) {
	names := Registered()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range []string{"direct", "ostm", "tl2", "norec"} {
		if !got[want] {
			t.Errorf("Registered() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Registered() not sorted: %v", names)
		}
	}
}

func TestNewReturnsFreshNamedEngines(t *testing.T) {
	for _, name := range Registered() {
		e1, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e1.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, e1.Name())
		}
		e2, _ := New(name)
		if e1 == e2 {
			t.Errorf("New(%q) returned the same instance twice", name)
		}
		// Engines must be independent: a Var allocated from one space
		// must not advance the other's ids.
		v1 := NewCell(e1.VarSpace(), 1).Var()
		v2 := NewCell(e2.VarSpace(), 1).Var()
		if v1.ID() != v2.ID() {
			t.Errorf("New(%q): fresh engines share a VarSpace (ids %d, %d)", name, v1.ID(), v2.ID())
		}
	}
}

func TestNewUnknownEngine(t *testing.T) {
	_, err := New("nope")
	if err == nil {
		t.Fatal("New(nope) succeeded")
	}
	if !strings.Contains(err.Error(), "norec") {
		t.Errorf("error should list registered engines, got: %v", err)
	}
}
