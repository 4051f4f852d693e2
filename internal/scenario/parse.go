package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

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
//	{"name": "hot", "engine": "versions=4,deadline=25ms,serial,nosnap,faults=seed=7,abort:1/24",
//	 "phases": [...]}
//
// Open-loop phases may additionally shed overload: shed_after (duration)
// refuses arrivals waiting longer than the budget, queue_bound (int > 0)
// caps the backlog.
type fileScenario struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	Engine      string      `json:"engine,omitempty"`
	Defaults    *filePhase  `json:"defaults,omitempty"`
	Phases      []filePhase `json:"phases"`
}

// filePhase is one phase (or the defaults object) on the wire. Pointer
// fields distinguish "absent" from zero so defaults can layer.
type filePhase struct {
	Name           string             `json:"name,omitempty"`
	Duration       string             `json:"duration,omitempty"`
	MaxOps         *int               `json:"max_ops,omitempty"`
	Threads        *int               `json:"threads,omitempty"`
	Workload       *string            `json:"workload,omitempty"`
	LongTraversals *bool              `json:"long_traversals,omitempty"`
	StructureMods  *bool              `json:"structure_mods,omitempty"`
	Reduced        *bool              `json:"reduced,omitempty"`
	Weights        map[string]float64 `json:"weights,omitempty"`
	Skew           *float64           `json:"skew,omitempty"`
	SkewShift      *float64           `json:"skew_shift,omitempty"`
	OpenLoop       *bool              `json:"open_loop,omitempty"`
	ArrivalRate    *float64           `json:"arrival_rate,omitempty"`
	ShedAfter      *string            `json:"shed_after,omitempty"`
	QueueBound     *int               `json:"queue_bound,omitempty"`
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

// overlay applies the set fields of src on top of dst.
func overlay(dst, src *filePhase) {
	if src == nil {
		return
	}
	if src.Duration != "" {
		dst.Duration = src.Duration
	}
	if src.MaxOps != nil {
		dst.MaxOps = src.MaxOps
	}
	if src.Threads != nil {
		dst.Threads = src.Threads
	}
	if src.Workload != nil {
		dst.Workload = src.Workload
	}
	if src.LongTraversals != nil {
		dst.LongTraversals = src.LongTraversals
	}
	if src.StructureMods != nil {
		dst.StructureMods = src.StructureMods
	}
	if src.Reduced != nil {
		dst.Reduced = src.Reduced
	}
	if src.Weights != nil {
		dst.Weights = src.Weights
	}
	if src.Skew != nil {
		dst.Skew = src.Skew
	}
	if src.SkewShift != nil {
		dst.SkewShift = src.SkewShift
	}
	if src.OpenLoop != nil {
		dst.OpenLoop = src.OpenLoop
	}
	if src.ArrivalRate != nil {
		dst.ArrivalRate = src.ArrivalRate
	}
	if src.ShedAfter != nil {
		dst.ShedAfter = src.ShedAfter
	}
	if src.QueueBound != nil {
		dst.QueueBound = src.QueueBound
	}
}

// resolvePhase turns a layered wire phase into a Phase.
func resolvePhase(fp filePhase, index int) (Phase, error) {
	ph := Phase{
		Name:           fp.Name,
		LongTraversals: true,
		StructureMods:  true,
	}
	if ph.Name == "" {
		ph.Name = fmt.Sprintf("phase%d", index+1)
	}
	fail := func(err error) (Phase, error) {
		return Phase{}, fmt.Errorf("phase %q: %w", ph.Name, err)
	}
	if fp.Duration != "" {
		d, err := time.ParseDuration(fp.Duration)
		if err != nil {
			return fail(err)
		}
		ph.Duration = d
	}
	if fp.MaxOps != nil {
		ph.MaxOps = *fp.MaxOps
	}
	if fp.Threads != nil {
		ph.Threads = *fp.Threads
	}
	if fp.Workload != nil {
		w, err := ops.ParseWorkload(*fp.Workload)
		if err != nil {
			return fail(err)
		}
		ph.Workload = w
	}
	if fp.LongTraversals != nil {
		ph.LongTraversals = *fp.LongTraversals
	}
	if fp.StructureMods != nil {
		ph.StructureMods = *fp.StructureMods
	}
	if fp.Reduced != nil {
		ph.Reduced = *fp.Reduced
	}
	if fp.Weights != nil {
		ph.Weights = map[ops.Category]float64{}
		for key, w := range fp.Weights {
			cat, err := parseCategory(key)
			if err != nil {
				return fail(err)
			}
			ph.Weights[cat] = w
		}
	}
	if fp.Skew != nil {
		ph.SkewTheta = *fp.Skew
	}
	if fp.SkewShift != nil {
		ph.SkewShift = *fp.SkewShift
	}
	if fp.OpenLoop != nil {
		ph.OpenLoop = *fp.OpenLoop
	}
	if fp.ArrivalRate != nil {
		ph.ArrivalRate = *fp.ArrivalRate
	}
	if fp.ShedAfter != nil {
		d, err := time.ParseDuration(*fp.ShedAfter)
		if err != nil {
			return fail(fmt.Errorf("bad shed_after: %w", err))
		}
		ph.ShedAfter = d
	}
	if fp.QueueBound != nil {
		// An explicit zero is a contradiction, not "off": 0 means
		// unbounded, which is what omitting the key already says.
		if *fp.QueueBound == 0 {
			return fail(fmt.Errorf("queue_bound 0 means an unbounded queue; omit the key instead"))
		}
		ph.QueueBound = *fp.QueueBound
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
	for i, fp := range fs.Phases {
		merged := filePhase{}
		overlay(&merged, fs.Defaults)
		overlay(&merged, &fp)
		merged.Name = fp.Name
		// A phase choosing one side of an either/or pair overrides the
		// defaults' other side, instead of tripping the "set exactly
		// one" validation: max_ops beats an inherited duration (and
		// vice versa), and switching open_loop off drops an inherited
		// arrival_rate.
		if fp.MaxOps != nil && fp.Duration == "" {
			merged.Duration = ""
		}
		if fp.Duration != "" && fp.MaxOps == nil {
			merged.MaxOps = nil
		}
		if fp.OpenLoop != nil && !*fp.OpenLoop {
			// Switching open_loop off drops the inherited open-loop-only
			// knobs a defaults object may have set.
			if fp.ArrivalRate == nil {
				merged.ArrivalRate = nil
			}
			if fp.ShedAfter == nil {
				merged.ShedAfter = nil
			}
			if fp.QueueBound == nil {
				merged.QueueBound = nil
			}
		}
		ph, err := resolvePhase(merged, i)
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
