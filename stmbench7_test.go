package stmbench7_test

import (
	"strings"
	"testing"

	stmbench7 "repro"
)

func TestFacadeRun(t *testing.T) {
	res, err := stmbench7.Run(stmbench7.Options{
		Params:          stmbench7.TinyParams(),
		Threads:         2,
		MaxOps:          40,
		Workload:        stmbench7.ReadWrite,
		LongTraversals:  true,
		StructureMods:   true,
		Strategy:        "tl2",
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSucceeded() == 0 {
		t.Error("nothing succeeded")
	}
	var sb strings.Builder
	stmbench7.WriteReport(&sb, res, false)
	if !strings.Contains(sb.String(), "Summary results") {
		t.Error("report missing summary")
	}
}

func TestFacadeParams(t *testing.T) {
	if p := stmbench7.MediumParams(); p.NumCompParts != 500 {
		t.Errorf("medium params: %d composite parts, want 500", p.NumCompParts)
	}
	if _, ok := stmbench7.NamedParams("small"); !ok {
		t.Error("NamedParams(small) missing")
	}
	if _, ok := stmbench7.NamedParams("nope"); ok {
		t.Error("NamedParams(nope) should fail")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	w, err := stmbench7.ParseWorkload("w")
	if err != nil || w != stmbench7.WriteDominated {
		t.Errorf("ParseWorkload(w) = %v, %v", w, err)
	}
}

func TestFacadeStrategiesAndOps(t *testing.T) {
	// Superset checks, not exact counts: the registries are designed so
	// a new engine joins Strategies()/STMStrategies() with no edit here.
	have := map[string]bool{}
	for _, s := range stmbench7.Strategies() {
		have[s] = true
	}
	for _, s := range []string{"coarse", "medium", "ostm", "tl2", "norec", "direct"} {
		if !have[s] {
			t.Errorf("Strategies() = %v, missing %q", stmbench7.Strategies(), s)
		}
	}
	haveSTM := map[string]bool{}
	for _, s := range stmbench7.STMStrategies() {
		haveSTM[s] = true
		if s == "coarse" || s == "medium" || s == "direct" {
			t.Errorf("STMStrategies() contains non-STM strategy %q", s)
		}
	}
	for _, s := range []string{"norec", "ostm", "tl2"} {
		if !haveSTM[s] {
			t.Errorf("STMStrategies() = %v, missing %q", stmbench7.STMStrategies(), s)
		}
	}
	names := stmbench7.OperationNames()
	if len(names) != 45 || names[0] != "T1" {
		t.Errorf("OperationNames() broken: %d names, first %q", len(names), names[0])
	}
}
