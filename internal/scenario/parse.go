package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/ops"
)

// The JSON scenario file format. Every phase field is optional except the
// length (duration or max_ops); a top-level "defaults" object supplies
// phase-level defaults, and unset fields fall back to a read-dominated
// full mix. Unknown fields anywhere are errors, so typos fail loudly:
//
//	{
//	  "name": "my-scenario",
//	  "description": "what this load models",
//	  "defaults": {"threads": 4, "workload": "rw"},
//	  "phases": [
//	    {"name": "warm", "duration": "500ms", "workload": "r"},
//	    {"name": "storm", "duration": "1s", "workload": "w",
//	     "weights": {"op": 1, "sm": 1}, "skew": 0.9, "skew_shift": 0.5,
//	     "open_loop": true, "arrival_rate": 5000}
//	  ]
//	}
//
// Durations use Go syntax ("300ms", "2s"). Weight keys are the category
// names ("long-traversal", "short-traversal", "short-operation",
// "structure-modification") or the short aliases lt, st, op, sm.
// The run-level key "engine" is top-level, not per phase: the engine is
// built into the executor before the first phase runs, so it is a
// property of the whole scenario. It is an engine-spec option list
// (stm.ParseEngineSpec's options) applied over the run's -g spec — a key
// set here overrides the run's value, an unset key inherits it, and
// "serial=off" or "nosnap=off" turns a run-level key off:
//
//	{"name": "hot", "engine": "deadline=25ms,retries=8,serial,nosnap,faults=seed=7,abort:1/24",
//	 "phases": [...]}
//
// Open-loop phases may additionally shed overload: shed_after (duration)
// refuses arrivals waiting longer than the budget, queue_bound (int > 0)
// caps the backlog.
//
// A phase inherits every key it leaves out (or sets to null or "") from
// "defaults", except "name"; its own "weights" replace the defaults'.
type fileScenario struct {
	Name        string            `json:"name"`
	Description string            `json:"description"`
	Engine      string            `json:"engine"`
	Defaults    json.RawMessage   `json:"defaults"`
	Phases      []json.RawMessage `json:"phases"`
}

// filePhase is one phase (or the defaults object) on the wire.
type filePhase struct {
	Name           string             `json:"name"`
	Duration       string             `json:"duration"`
	MaxOps         int                `json:"max_ops"`
	Threads        int                `json:"threads"`
	Workload       string             `json:"workload"`
	LongTraversals bool               `json:"long_traversals"`
	StructureMods  bool               `json:"structure_mods"`
	Reduced        bool               `json:"reduced"`
	Weights        map[string]float64 `json:"weights"`
	Skew           float64            `json:"skew"`
	SkewShift      float64            `json:"skew_shift"`
	OpenLoop       bool               `json:"open_loop"`
	ArrivalRate    float64            `json:"arrival_rate"`
	ShedAfter      string             `json:"shed_after"`
	QueueBound     int                `json:"queue_bound"`
}

// parseCategory resolves a weight key.
func parseCategory(s string) (ops.Category, error) {
	switch s {
	case "lt", "long-traversal":
		return ops.LongTraversal, nil
	case "st", "short-traversal":
		return ops.ShortTraversal, nil
	case "op", "short-operation":
		return ops.ShortOperation, nil
	case "sm", "structure-modification":
		return ops.StructureModification, nil
	default:
		return 0, fmt.Errorf("unknown category %q (want lt, st, op, sm or the full names)", s)
	}
}

// decodePhase decodes one phase object over a copy of the decoded
// defaults. A key set to null or "" counts as absent, so it inherits the
// default. A phase's weights replace the defaults' (encoding/json would
// merge them into the map it finds), and a phase choosing one side of an
// either/or pair overrides the defaults' other side instead of tripping
// the "set exactly one" validation: max_ops beats an inherited duration
// and vice versa, and open_loop false drops the inherited
// open-loop-only keys.
func decodePhase(raw json.RawMessage, defaults filePhase) (filePhase, error) {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return filePhase{}, err
	}
	set := map[string]bool{}
	for k, v := range keys {
		// encoding/json matches keys case-insensitively.
		set[strings.ToLower(k)] = string(v) != "null" && string(v) != `""`
	}
	fp := defaults
	fp.Name, fp.Weights = "", nil
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fp); err != nil {
		return filePhase{}, err
	}
	if !set["weights"] {
		fp.Weights = defaults.Weights
	}
	if !set["duration"] {
		fp.Duration = defaults.Duration
	}
	if !set["workload"] {
		fp.Workload = defaults.Workload
	}
	if !set["shed_after"] {
		fp.ShedAfter = defaults.ShedAfter
	}
	if set["max_ops"] && !set["duration"] {
		fp.Duration = ""
	}
	if set["duration"] && !set["max_ops"] {
		fp.MaxOps = 0
	}
	if set["open_loop"] && !fp.OpenLoop {
		if !set["arrival_rate"] {
			fp.ArrivalRate = 0
		}
		if !set["shed_after"] {
			fp.ShedAfter = ""
		}
		if !set["queue_bound"] {
			fp.QueueBound = 0
		}
	}
	// An explicit zero is a contradiction, not "off": 0 means unbounded,
	// which is what omitting the key already says.
	if set["queue_bound"] && fp.QueueBound == 0 {
		return filePhase{}, fmt.Errorf("queue_bound 0 means an unbounded queue; omit the key instead")
	}
	return fp, nil
}

// resolvePhase turns a decoded wire phase into a Phase.
func resolvePhase(fp filePhase, index int) (Phase, error) {
	ph := Phase{Name: fp.Name, Options: harness.Options{
		MaxOps:         fp.MaxOps,
		Threads:        fp.Threads,
		LongTraversals: fp.LongTraversals,
		StructureMods:  fp.StructureMods,
		Reduced:        fp.Reduced,
		SkewTheta:      fp.Skew,
		SkewShift:      fp.SkewShift,
		OpenLoop:       fp.OpenLoop,
		ArrivalRate:    fp.ArrivalRate,
		QueueBound:     fp.QueueBound,
	}}
	if ph.Name == "" {
		ph.Name = fmt.Sprintf("phase%d", index+1)
	}
	fail := func(err error) (Phase, error) {
		return Phase{}, fmt.Errorf("phase %q: %w", ph.Name, err)
	}
	var err error
	if ph.Workload, err = ops.ParseWorkload(fp.Workload); err != nil {
		return fail(err)
	}
	if fp.Duration != "" {
		if ph.Duration, err = time.ParseDuration(fp.Duration); err != nil {
			return fail(err)
		}
	}
	if fp.ShedAfter != "" {
		if ph.ShedAfter, err = time.ParseDuration(fp.ShedAfter); err != nil {
			return fail(fmt.Errorf("bad shed_after: %w", err))
		}
	}
	if fp.Weights != nil {
		ph.CategoryWeights = make(map[ops.Category]float64, len(fp.Weights))
		for key, w := range fp.Weights {
			cat, err := parseCategory(key)
			if err != nil {
				return fail(err)
			}
			ph.CategoryWeights[cat] = w
		}
	}
	return ph, nil
}

// Parse decodes and validates a JSON scenario. Unknown fields (at any
// nesting level) are errors.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fs fileScenario
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	sc := &Scenario{
		Name:        fs.Name,
		Description: fs.Description,
		Engine:      fs.Engine,
	}
	defaults := filePhase{Workload: "r", LongTraversals: true, StructureMods: true}
	if fs.Defaults != nil {
		var err error
		if defaults, err = decodePhase(fs.Defaults, defaults); err != nil {
			return nil, fmt.Errorf("scenario %q: defaults: %w", sc.Name, err)
		}
	}
	for i, raw := range fs.Phases {
		fp, err := decodePhase(raw, defaults)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: phase %d: %w", sc.Name, i+1, err)
		}
		ph, err := resolvePhase(fp, i)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		sc.Phases = append(sc.Phases, ph)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ParseFile reads and parses a JSON scenario file.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}
