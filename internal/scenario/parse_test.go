package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/ops"
	"repro/stm"
)

func TestParseFullScenario(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "custom",
		"description": "a parser round trip",
		"defaults": {"threads": 4, "workload": "rw", "long_traversals": false},
		"phases": [
			{"name": "warm", "duration": "500ms"},
			{"name": "storm", "duration": "1s", "workload": "w", "threads": 8,
			 "weights": {"op": 1, "sm": 1}, "skew": 0.9, "skew_shift": 0.5,
			 "open_loop": true, "arrival_rate": 5000},
			{"max_ops": 100, "structure_mods": false, "reduced": true}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "custom" || len(sc.Phases) != 3 {
		t.Fatalf("parsed %q with %d phases", sc.Name, len(sc.Phases))
	}

	warm := sc.Phases[0]
	if warm.Duration != 500*time.Millisecond || warm.Threads != 4 ||
		warm.Workload != ops.ReadWrite || warm.LongTraversals || !warm.StructureMods {
		t.Errorf("defaults not layered onto warm: %+v", warm)
	}

	storm := sc.Phases[1]
	if storm.Threads != 8 || storm.Workload != ops.WriteDominated ||
		storm.SkewTheta != 0.9 || storm.SkewShift != 0.5 ||
		!storm.OpenLoop || storm.ArrivalRate != 5000 {
		t.Errorf("storm overrides not applied: %+v", storm)
	}
	if storm.CategoryWeights[ops.ShortOperation] != 1 || storm.CategoryWeights[ops.StructureModification] != 1 {
		t.Errorf("storm weights = %v", storm.CategoryWeights)
	}

	last := sc.Phases[2]
	if last.Name != "phase3" {
		t.Errorf("unnamed phase resolved to %q, want phase3", last.Name)
	}
	if last.MaxOps != 100 || last.Duration != 0 || last.StructureMods || !last.Reduced {
		t.Errorf("third phase: %+v", last)
	}
}

func TestParseUnknownPhaseField(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "x",
		"phases": [{"name": "p", "duration": "1s", "turbo": true}]
	}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown phase field accepted: %v", err)
	}
}

func TestParseZeroDurationPhase(t *testing.T) {
	_, err := Parse([]byte(`{"name": "x", "phases": [{"name": "p"}]}`))
	if err == nil || !strings.Contains(err.Error(), "positive duration or max_ops") {
		t.Errorf("zero-length phase accepted: %v", err)
	}
}

func TestParseBadMixWeights(t *testing.T) {
	for name, body := range map[string]string{
		"unknown category": `{"name": "x", "phases": [{"name": "p", "duration": "1s", "weights": {"turbo": 1}}]}`,
		"negative weight":  `{"name": "x", "phases": [{"name": "p", "duration": "1s", "weights": {"op": -1}}]}`,
		"zero sum":         `{"name": "x", "phases": [{"name": "p", "duration": "1s", "weights": {"op": 0}}]}`,
	} {
		if _, err := Parse([]byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestParseBadDurationAndWorkload(t *testing.T) {
	if _, err := Parse([]byte(`{"name": "x", "phases": [{"name": "p", "duration": "fast"}]}`)); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := Parse([]byte(`{"name": "x", "phases": [{"name": "p", "duration": "1s", "workload": "zippy"}]}`)); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestParsedScenarioRuns(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "from-json",
		"phases": [
			{"name": "a", "max_ops": 50, "workload": "r"},
			{"name": "b", "max_ops": 50, "workload": "w", "skew": 0.8}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, RunOptions{Options: harness.Options{Strategy: "norec", Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases[0].Result.TotalAttempted() != 100 || rep.Phases[1].Result.TotalAttempted() != 100 {
		t.Errorf("parsed scenario ran wrong op counts: %d, %d",
			rep.Phases[0].Result.TotalAttempted(), rep.Phases[1].Result.TotalAttempted())
	}
}

func TestLookupFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	body := `{"name": "filed", "phases": [{"name": "p", "max_ops": 10}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "filed" {
		t.Errorf("loaded %q", sc.Name)
	}
}

// TestParsePhaseOverridesDefaultPairs: a phase choosing one side of an
// either/or pair must beat the defaults' other side.
func TestParsePhaseOverridesDefaultPairs(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "pairs",
		"defaults": {"duration": "100ms", "open_loop": true, "arrival_rate": 1000},
		"phases": [
			{"name": "counted", "max_ops": 10, "open_loop": false},
			{"name": "timed"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	counted := sc.Phases[0]
	if counted.MaxOps != 10 || counted.Duration != 0 {
		t.Errorf("max_ops did not override defaulted duration: %+v", counted)
	}
	if counted.OpenLoop || counted.ArrivalRate != 0 {
		t.Errorf("open_loop false did not drop inherited arrival_rate: %+v", counted)
	}
	timed := sc.Phases[1]
	if timed.Duration != 100*time.Millisecond || !timed.OpenLoop || timed.ArrivalRate != 1000 {
		t.Errorf("defaults not inherited by timed phase: %+v", timed)
	}
}

func TestParseEngineKey(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "meta",
		"engine": "deadline=25ms,retries=4",
		"phases": [{"name": "p", "duration": "10ms"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Engine != "deadline=25ms,retries=4" {
		t.Errorf("engine key not parsed: %+v", sc)
	}

	if _, err := Parse([]byte(`{
		"name": "meta",
		"engine": "word",
		"phases": [{"name": "p", "duration": "10ms"}]
	}`)); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("bad engine option not rejected: %v", err)
	}

	// The per-knob keys the engine key replaced, and the per-phase key of
	// the deleted arrival-routing driver, are unknown fields now at either level,
	// not silent no-ops.
	for _, old := range []string{
		`"granularity": "striped"`, `"orec_stripes": 128`, `"clock_shards": 4`, `"versions": 4`,
		`"tx_deadline": "25ms"`, `"serial_fallback": "on"`, `"fault_plan": "abort:1/4"`,
		`"group_commit": "on"`, `"coalescing": "on"`, `"ro_snapshot": "off"`, `"adaptive": "on"`,
		`"affinity": true`,
	} {
		for _, doc := range []string{
			`{"name": "old", ` + old + `, "phases": [{"name": "p", "duration": "10ms"}]}`,
			`{"name": "old", "phases": [{"name": "p", "duration": "10ms", ` + old + `}]}`,
		} {
			if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("old key in %s: err = %v, want an unknown-field error", doc, err)
			}
		}
	}

	// A per-phase engine is a design error, not a silent no-op.
	if _, err := Parse([]byte(`{
		"name": "meta",
		"phases": [{"name": "p", "duration": "10ms", "engine": "nosnap"}]
	}`)); err == nil {
		t.Error("per-phase engine accepted (the engine is run-level)")
	}
}

// TestParseNoSnapKnob: the read-only snapshot fast path is the nosnap
// engine key, applied over the run's options like any other.
func TestParseNoSnapKnob(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "snap",
		"engine": "nosnap",
		"phases": [{"name": "p", "duration": "10ms"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if o, err := (stm.EngineOptions{}).Apply(sc.Engine); err != nil || o.String() != "nosnap" {
		t.Errorf("engine %q applied to %+v, %v; want nosnap set", sc.Engine, o, err)
	}

	if _, err := Parse([]byte(`{
		"name": "snap",
		"engine": "nosnap=maybe",
		"phases": [{"name": "p", "duration": "10ms"}]
	}`)); err == nil || !strings.Contains(err.Error(), "nosnap") {
		t.Errorf("bad nosnap not rejected: %v", err)
	}

	// Per-phase ro_snapshot is run-level, like the metadata knobs.
	if _, err := Parse([]byte(`{
		"name": "snap",
		"phases": [{"name": "p", "duration": "10ms", "ro_snapshot": "on"}]
	}`)); err == nil {
		t.Error("per-phase ro_snapshot accepted (dispatch is run-level)")
	}
}

// FuzzParseScenario hardens the JSON scenario parser: arbitrary input must
// never panic it, and whatever Parse accepts is a scenario the runner can
// take — Validate accepts it and its engine keys apply over a run's spec.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"name": "x", "phases": []}`,
		`{"name": "x", "phases": [{"name": "p", "duration": "10ms"}]}`,
		`{"name": "x", "phases": [{"max_ops": 5, "threads": -1}]}`,
		`{"name": "x", "engine": "retries=4,serial=off,nosnap",
		  "phases": [{"name": "p", "max_ops": 5}]}`,
		`{"name": "x", "engine": "deadline=25ms,serial,faults=seed=7,abort:1/24", "phases": [{"name": "p", "max_ops": 5}]}`,
		`{"name": "x", "engine": "faults=seed=7", "phases": [{"name": "p", "max_ops": 5}]}`,
		`{"name": "x", "granularity": "striped", "phases": [{"name": "p", "max_ops": 5}]}`,
		`{"name": "x", "defaults": {"threads": 4, "workload": "rw", "duration": "1s", "open_loop": true, "arrival_rate": 100,
		  "shed_after": "2ms", "queue_bound": 8},
		  "phases": [{"name": "a"}, {"name": "b", "open_loop": false, "max_ops": 3},
		             {"name": "c", "weights": {"op": 1, "sm": 0}, "skew": 0.9, "skew_shift": 0.5, "structure_mods": false}]}`,
		`{"name": "x", "phases": [{"name": "p", "duration": "10ms", "weights": {"lt": 1}, "long_traversals": false}]}`,
		`{"name": "x", "phases": [{"name": "p", "duration": "10ms", "queue_bound": 0}]}`,
		`{"name": "x", "phases": [{"name": "p", "duration": "-1s"}]} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects it: %v", data, err)
		}
		if _, err := (stm.EngineOptions{MaxRetries: 2, SerialFallback: true}).Apply(sc.Engine); err != nil {
			t.Fatalf("Parse accepted %q but its engine keys do not apply over a run's spec: %v", data, err)
		}
	})
}

// wireKeys names the JSON key that sets each phase field; phaseSettings
// reports a field under its key, so the table in TestParseFormat is
// written in the file format's own vocabulary.
var wireKeys = map[string]string{
	"Name": "name", "Duration": "duration", "MaxOps": "max_ops", "Threads": "threads",
	"Workload": "workload", "LongTraversals": "long_traversals", "StructureMods": "structure_mods",
	"Reduced": "reduced", "SkewTheta": "skew", "SkewShift": "skew_shift", "OpenLoop": "open_loop",
	"ArrivalRate": "arrival_rate", "ShedAfter": "shed_after", "QueueBound": "queue_bound",
}

// phaseSettings flattens a phase into its non-zero fields, walking
// embedded structs. The category weight map is reported as "weights"; a
// non-zero field no JSON key sets keeps its Go name, so a parse that
// leaks a run-level setting into a phase fails the comparison.
func phaseSettings(ph Phase) map[string]any {
	out := map[string]any{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			switch {
			case f.Anonymous:
				walk(fv)
			case fv.IsZero():
			case fv.Type() == reflect.TypeOf(map[ops.Category]float64(nil)):
				out["weights"] = fv.Interface()
			case wireKeys[f.Name] != "":
				out[wireKeys[f.Name]] = fv.Interface()
			default:
				out[f.Name] = fv.Interface()
			}
		}
	}
	walk(reflect.ValueOf(ph))
	return out
}

// TestParseFormat pins the JSON format field by field: what each document
// resolves to, phase by phase, with defaults layered in. Every field a
// phase leaves at its zero value is omitted from the table.
func TestParseFormat(t *testing.T) {
	const ms = time.Millisecond
	full := func(kv ...any) map[string]any { // a phase with both default-on gates
		m := map[string]any{"long_traversals": true, "structure_mods": true}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return m
	}
	for _, c := range []struct {
		name, doc, engine string
		want              []map[string]any
	}{
		{
			name: "fuzz seed: one timed phase",
			doc:  `{"name": "x", "phases": [{"name": "p", "duration": "10ms"}]}`,
			want: []map[string]any{full("name", "p", "duration", 10*ms)},
		},
		{
			name: "fuzz seed: engine overlay",
			doc: `{"name": "x", "engine": "retries=4,serial=off,nosnap",
			  "phases": [{"name": "p", "max_ops": 5}]}`,
			engine: "retries=4,serial=off,nosnap",
			want:   []map[string]any{full("name", "p", "max_ops", 5)},
		},
		{
			name:   "fuzz seed: robustness engine keys",
			doc:    `{"name": "x", "engine": "deadline=25ms,serial,faults=seed=7,abort:1/24", "phases": [{"name": "p", "max_ops": 5}]}`,
			engine: "deadline=25ms,serial,faults=seed=7,abort:1/24",
			want:   []map[string]any{full("name", "p", "max_ops", 5)},
		},
		{
			name: "fuzz seed: open-loop defaults",
			doc: `{"name": "x", "defaults": {"threads": 4, "workload": "rw", "duration": "1s", "open_loop": true, "arrival_rate": 100,
			  "shed_after": "2ms", "queue_bound": 8},
			  "phases": [{"name": "a"}, {"name": "b", "open_loop": false, "max_ops": 3},
			             {"name": "c", "weights": {"op": 1, "sm": 0}, "skew": 0.9, "skew_shift": 0.5, "structure_mods": false}]}`,
			want: []map[string]any{
				full("name", "a", "duration", time.Second, "threads", 4, "workload", ops.ReadWrite,
					"open_loop", true, "arrival_rate", 100.0, "shed_after", 2*ms, "queue_bound", 8),
				full("name", "b", "max_ops", 3, "threads", 4, "workload", ops.ReadWrite),
				{"name": "c", "duration": time.Second, "threads": 4, "workload": ops.ReadWrite, "long_traversals": true,
					"weights": map[ops.Category]float64{ops.ShortOperation: 1, ops.StructureModification: 0},
					"skew":    0.9, "skew_shift": 0.5,
					"open_loop": true, "arrival_rate": 100.0, "shed_after": 2 * ms, "queue_bound": 8},
			},
		},
		{
			name: "example: workload flip with a migrating hotspot",
			doc: `{
				"name": "from-json",
				"description": "declared in JSON, workload flip with a migrating hotspot",
				"defaults": {"threads": 2, "skew": 0.9},
				"phases": [
					{"name": "left", "duration": "300ms", "workload": "rw"},
					{"name": "right", "duration": "300ms", "workload": "w", "skew_shift": 0.5}
				]
			}`,
			want: []map[string]any{
				full("name", "left", "duration", 300*ms, "threads", 2, "workload", ops.ReadWrite, "skew", 0.9),
				full("name", "right", "duration", 300*ms, "threads", 2, "workload", ops.WriteDominated, "skew", 0.9, "skew_shift", 0.5),
			},
		},
		{
			name: "a phase's weights replace the defaults', never merge",
			doc: `{"name": "x", "defaults": {"duration": "10ms", "weights": {"st": 1, "op": 1}},
			  "phases": [{"name": "own", "weights": {"sm": 2}}, {"name": "inherited"}]}`,
			want: []map[string]any{
				full("name", "own", "duration", 10*ms, "weights", map[ops.Category]float64{ops.StructureModification: 2}),
				full("name", "inherited", "duration", 10*ms,
					"weights", map[ops.Category]float64{ops.ShortTraversal: 1, ops.ShortOperation: 1}),
			},
		},
		{
			name: "a defaults queue_bound reaches every phase",
			doc: `{"name": "x", "defaults": {"duration": "10ms", "open_loop": true, "arrival_rate": 500, "queue_bound": 16},
			  "phases": [{"name": "a"}, {"name": "b", "arrival_rate": 1000}]}`,
			want: []map[string]any{
				full("name", "a", "duration", 10*ms, "open_loop", true, "arrival_rate", 500.0, "queue_bound", 16),
				full("name", "b", "duration", 10*ms, "open_loop", true, "arrival_rate", 1000.0, "queue_bound", 16),
			},
		},
		{
			name: "a defaults name is ignored; a phase duration beats an inherited max_ops",
			doc: `{"name": "x", "defaults": {"name": "ignored", "max_ops": 5},
			  "phases": [{"name": "named"}, {}, {"name": "timed", "duration": "10ms"}]}`,
			want: []map[string]any{
				full("name", "named", "max_ops", 5),
				full("name", "phase2", "max_ops", 5),
				full("name", "timed", "duration", 10*ms),
			},
		},
		{
			name: "a null or empty value inherits the default",
			doc: `{"name": "x", "defaults": {"duration": "10ms", "weights": {"op": 1}},
			  "phases": [{"name": "p", "duration": "", "weights": null}]}`,
			want: []map[string]any{
				full("name", "p", "duration", 10*ms, "weights", map[ops.Category]float64{ops.ShortOperation: 1}),
			},
		},
		{
			name: "open_loop false drops the open-loop defaults",
			doc: `{"name": "x", "defaults": {"duration": "10ms", "open_loop": true, "arrival_rate": 1000,
			  "shed_after": "1ms", "queue_bound": 4},
			  "phases": [{"name": "closed", "open_loop": false}, {"name": "open"}]}`,
			want: []map[string]any{
				full("name", "closed", "duration", 10*ms),
				full("name", "open", "duration", 10*ms, "open_loop", true, "arrival_rate", 1000.0,
					"shed_after", ms, "queue_bound", 4),
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := Parse([]byte(c.doc))
			if err != nil {
				t.Fatal(err)
			}
			if sc.Engine != c.engine {
				t.Errorf("engine = %q, want %q", sc.Engine, c.engine)
			}
			if len(sc.Phases) != len(c.want) {
				t.Fatalf("%d phases, want %d", len(sc.Phases), len(c.want))
			}
			for i, ph := range sc.Phases {
				if got := phaseSettings(ph); !reflect.DeepEqual(got, c.want[i]) {
					t.Errorf("phase %d:\n got %v\nwant %v", i+1, got, c.want[i])
				}
			}
		})
	}
}
