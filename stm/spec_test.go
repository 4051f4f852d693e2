package stm

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// ciSpecs are the specs the CI smoke steps, the README and the builtin
// scenarios spell; every one must be its own canonical form.
var ciSpecs = []string{
	"coarse",
	"medium",
	"tl2",
	"tl2:deadline=25ms",
	"norec:deadline=25ms,retries=8",
	"norec:retries=8",
	"x:cm=timid,deadline=25ms",
	"norec:serial",
	"norec:nosnap",
	"ostm:serial",
	"ostm:cm=timid,visible",
	"tl2:nosnap",
	"ostm:commitcounter",
	"ostm:cm=timid,commitcounter,visible",
	"tl2:retries=3",
	"norec:deadline=25ms,serial",
	"x:cm=timid,retries=2",
	"x:deadline=25ms,faults=seed=7,precommit:1/40:80µs,lockhold:1/56:120µs,clocktick:1/72:40µs,abort:1/24",
}

func TestEngineSpecRoundTrip(t *testing.T) {
	for _, s := range ciSpecs {
		spec, err := ParseEngineSpec(s)
		if err != nil {
			t.Fatalf("ParseEngineSpec(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("round trip: %q -> %q", s, got)
		}
		again, err := ParseEngineSpec(spec.String())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Errorf("Parse(String(%q)) = %+v, %v; want %+v", s, again, err, spec)
		}
	}
}

func TestParseEngineSpec(t *testing.T) {
	t.Run("fields", func(t *testing.T) {
		spec := mustSpec(" tl2 : retries=2 ,cm=timid,commitcounter,visible,deadline=3ms,serial,nosnap,faults=seed=3,abort:1/8")
		want := EngineOptions{
			MaxRetries: 2, CM: Timid{}, CommitCounterHeuristic: true, VisibleReads: true,
			TxDeadline: 3 * time.Millisecond, SerialFallback: true,
			DisableROSnapshot: true,
		}
		if spec.Name != "tl2" {
			t.Errorf("Name = %q, want tl2", spec.Name)
		}
		if got := spec.Options.Faults.String(); got != "seed=3,abort:1/8" {
			t.Errorf("Faults = %q", got)
		}
		spec.Options.Faults = nil
		if !reflect.DeepEqual(spec.Options, want) {
			t.Errorf("Options = %+v, want %+v", spec.Options, want)
		}
	})
	t.Run("bare-name-is-zero-options", func(t *testing.T) {
		for _, s := range []string{"medium", "tl2:", " norec "} {
			spec := mustSpec(s)
			if !reflect.DeepEqual(spec.Options, EngineOptions{}) || spec.String() != spec.Name {
				t.Errorf("ParseEngineSpec(%q) = %+v, want zero options", s, spec)
			}
		}
	})
	t.Run("malformed", func(t *testing.T) {
		for _, s := range []string{
			"",                            // no name
			":serial",                     // no name
			"tl2:word",                    // unknown key
			"tl2:SERIAL",                  // keys are case sensitive
			"tl2:serial,",                 // trailing comma
			"tl2:,serial",                 // empty option
			"tl2:serial=maybe",            // booleans take on/off
			"tl2:serial=",                 // ... not an empty value
			"tl2:nosnap=maybe",            // ... nosnap included
			"tl2:retries",                 // counts need a value
			"tl2:retries=-1",              // ... a non-negative one
			"tl2:retries=two",             // ... a number
			"tl2:deadline=-1ms",           // no negative budgets
			"tl2:deadline=soon",           // Go durations only
			"ostm:cm=",                    // a manager name is required
			"ostm:cm=nice",                // ... a known one
			"tl2:faults=abort",            // the plan's own errors surface
			"tl2:faults=seed=7",           // a bare seed is not a plan
			"tl2:faults=abort:1/4,serial", // faults= is last: the rest is the plan
		} {
			if spec, err := ParseEngineSpec(s); err == nil {
				t.Errorf("ParseEngineSpec(%q) accepted as %s, want error", s, spec)
			}
		}
		// Deleted keys are unknown, not silently ignored.
		for s, key := range map[string]string{
			"tl2:adaptive": "adaptive", "tl2:shards=4": "shards", "tl2:coalesce": "coalesce",
			"norec:gc": "gc", "tl2:gc=on": "gc", "tl2:striped": "striped", "tl2:striped=64": "striped",
			"norec:versions=4": "versions", "tl2:versions=2": "versions",
			"ostm:ctv": "ctv", "ostm:commitcounter,ctv=on": "ctv",
		} {
			if _, err := ParseEngineSpec(s); err == nil || !strings.Contains(err.Error(), `unknown key "`+key+`"`) {
				t.Errorf("ParseEngineSpec(%q): err = %v, want unknown key %q", s, err, key)
			}
		}
		// The key list of the error names the keys there are, and only those.
		_, err := ParseEngineSpec("ostm:ctv")
		if err == nil || !strings.Contains(err.Error(), "(want cm, commitcounter, visible, deadline, retries, serial, nosnap or faults)") {
			t.Errorf("unknown-key error %v does not list the surviving keys", err)
		}
	})
}

// TestEngineOptionsApplyOverlay pins the overlay rule scenario files rely
// on: present keys set, absent keys inherit, =off and =0 reset.
func TestEngineOptionsApplyOverlay(t *testing.T) {
	base := opts("cm=timid,deadline=25ms,retries=2,serial,faults=abort:1/8")
	for _, c := range []struct{ overlay, want string }{
		{"", "cm=timid,deadline=25ms,retries=2,serial,faults=abort:1/8"},
		{"retries=4", "cm=timid,deadline=25ms,retries=4,serial,faults=abort:1/8"},
		{"serial=off", "cm=timid,deadline=25ms,retries=2,faults=abort:1/8"},
		{"serial=on,nosnap", "cm=timid,deadline=25ms,retries=2,serial,nosnap,faults=abort:1/8"},
		{"retries=0,deadline=0", "cm=timid,serial,faults=abort:1/8"},
		{"commitcounter=off", "cm=timid,deadline=25ms,retries=2,serial,faults=abort:1/8"},
		{"cm=polka", "cm=polka,deadline=25ms,retries=2,serial,faults=abort:1/8"},
		{"faults=seed=2,abort:1/2", "cm=timid,deadline=25ms,retries=2,serial,faults=seed=2,abort:1/2"},
		{"faults=", "cm=timid,deadline=25ms,retries=2,serial"},
		{"serial=off,serial", "cm=timid,deadline=25ms,retries=2,serial,faults=abort:1/8"},
		{"nosnap,faults=seed=2,abort:1/2", "cm=timid,deadline=25ms,retries=2,serial,nosnap,faults=seed=2,abort:1/2"},
	} {
		got, err := base.Apply(c.overlay)
		if err != nil {
			t.Errorf("Apply(%q): %v", c.overlay, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("Apply(%q) = %q, want %q", c.overlay, got, c.want)
		}
	}
	if _, err := base.Apply("bogus"); err == nil {
		t.Error("Apply accepted an unknown key")
	}
	rec := NewTraceRecorder(16)
	traced, err := EngineOptions{Trace: rec}.Apply("serial")
	if err != nil || traced.Trace != rec {
		t.Errorf("Apply dropped the base's Trace recorder (err %v)", err)
	}
}

func TestEngineOptionsValidate(t *testing.T) {
	for _, o := range []EngineOptions{
		{MaxRetries: -1}, {TxDeadline: -time.Second},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
	if err := opts("retries=8,deadline=1s").Validate(); err != nil {
		t.Errorf("Validate of a parsed value: %v", err)
	}
}

func TestParseContentionManager(t *testing.T) {
	for _, cm := range contentionManagers {
		got, err := ParseContentionManager(cm.Name())
		if err != nil || got != cm {
			t.Errorf("ParseContentionManager(%q) = %v, %v", cm.Name(), got, err)
		}
	}
	if _, err := ParseContentionManager("karma"); err == nil || !strings.Contains(err.Error(), "(want polka, timid)") {
		t.Errorf("unknown manager: err = %v, want one listing the valid names", err)
	}
}

// TestEveryEngineOptionHasASpecKey fails a knob added to EngineOptions
// without a spec key: every exported field except Trace (a live recorder,
// not configuration) must be printed by String when non-zero and restored
// by Apply from what String printed — otherwise it is unreachable from -g
// and from scenario files. EngineOptions is the only engine configuration
// type: NewTL2, NewNOrec and NewOSTM take nothing else.
func TestEveryEngineOptionHasASpecKey(t *testing.T) {
	typ := reflect.TypeOf(EngineOptions{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Name == "Trace" {
			continue
		}
		var o EngineOptions
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Interface().(type) {
		case int:
			f.SetInt(3)
		case bool:
			f.SetBool(true)
		case time.Duration:
			f.Set(reflect.ValueOf(3 * time.Millisecond))
		case *FaultPlan:
			f.Set(reflect.ValueOf(mustFaultPlan("seed=3,abort:1/8")))
		default:
			if field.Type == reflect.TypeOf((*ContentionManager)(nil)).Elem() {
				f.Set(reflect.ValueOf(Timid{}))
				break
			}
			t.Fatalf("field %s has type %s: teach this test a non-zero value for it", field.Name, field.Type)
		}
		printed := o.String()
		if printed == "" {
			t.Errorf("field %s: String() does not print a non-zero value (%q) — no spec key prints it", field.Name, printed)
			continue
		}
		back, err := EngineOptions{}.Apply(printed)
		if err != nil || back.String() != printed || reflect.ValueOf(back).Field(i).IsZero() {
			t.Errorf("field %s: Apply(%q) = %q, %v — no spec key sets it", field.Name, printed, back, err)
		}
	}
}

// FuzzParseEngineSpec hardens the spec grammar beside FuzzParseFaultPlan:
// arbitrary input must never panic the parser, and any input it accepts
// must reach a canonical fixed point — String's rendering parses back to a
// spec that renders identically, nested fault plan included.
func FuzzParseEngineSpec(f *testing.F) {
	for _, seed := range append([]string{
		"",
		"tl2:",
		":serial",
		"tl2:serial,",
		"tl2:visible=off,nosnap=off,serial=on",
		"tl2:faults=",
		"tl2:faults=abort:1/4,serial",
		"a b:retries=18446744073709551615",
		"tl2:deadline=9223372036854775807ns",
		"ostm:cm=nice",
		"tl2:adaptive",
		"tl2:adaptive=off",
		"tl2:nosnap,faults=abort:1/4",
		"tl2:nosnap=maybe",
		"ostm:commitcounter",
		"ostm:ctv",
		"tl2:retries=3",
		"tl2:retries=-1",
	}, ciSpecs...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseEngineSpec(s)
		if err != nil {
			return
		}
		if err := spec.Options.Validate(); err != nil {
			t.Fatalf("ParseEngineSpec(%q) produced out-of-range options: %v", s, err)
		}
		canon := spec.String()
		again, err := ParseEngineSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, s, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("not a fixed point: %q -> %q -> %q", s, canon, got)
		}
	})
}
