package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapturing calls run with args and returns what it wrote to stdout and
// to stderr.
func runCapturing(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string, dst **os.File) func() string {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved := *dst
		*dst = f
		return func() string {
			*dst = saved
			f.Close()
			out, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(out)
		}
	}
	restoreOut := capture("stdout", &os.Stdout)
	restoreErr := capture("stderr", &os.Stderr)
	err = run(args)
	return restoreOut(), restoreErr(), err
}

// TestRunRejectsBadFlags: configuration errors come back from run, before
// any structure is built or announced, naming the flag at fault.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown strategy", []string{"-g", "tl3"}, "bad -g"},
		{"unknown engine key", []string{"-g", "tl2:turbo"}, "bad -g"},
		{"negative arrival rate", []string{"-arrival-rate", "-5"}, "bad -arrival-rate"},
		{"negative threads", []string{"-size", "tiny", "-t", "-3", "-l", "0.1"}, "negative threads"},
		{"negative length", []string{"-size", "tiny", "-l", "-1"}, "negative duration"},
		{"trace-out without trace", []string{"-size", "tiny", "-trace-out", "trace.json"}, "-trace-out requires -trace"},
		{"scenario negative threads", []string{"-scenario", "smoke", "-size", "tiny", "-t", "-2"}, "negative threads"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, diag, err := runCapturing(t, c.args...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%q): err = %v, want one naming %q", c.args, err, c.want)
			}
			if out != "" {
				t.Errorf("run(%q) printed a report before failing:\n%s", c.args, out)
			}
			if strings.Contains(diag, "building") {
				t.Errorf("run(%q) announced a build before failing:\n%s", c.args, diag)
			}
		})
	}
}

// TestHelpSucceeds: -h prints the usage and is not an error, so the
// binary exits 0.
func TestHelpSucceeds(t *testing.T) {
	out, diag, err := runCapturing(t, "-h")
	if err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
	if out != "" {
		t.Errorf("run(-h) printed a report:\n%s", out)
	}
	if !strings.Contains(diag, "-trace-out") {
		t.Errorf("run(-h) did not print the usage:\n%s", diag)
	}
}

func TestListScenarios(t *testing.T) {
	out, _, err := runCapturing(t, "-list-scenarios")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"chaos-storm", "smoke", "spike"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list-scenarios output lacks %q:\n%s", name, out)
		}
	}
}

// TestScenarioSmoke drives the CI smoke scenario through the CLI, with
// the structural invariants checked after the last phase, and decodes its
// -json document: one entry per phase, in run order.
func TestScenarioSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	out, _, err := runCapturing(t, "-scenario", "smoke", "-size", "tiny", "-scenario-scale", "0.05", "-g", "tl2", "-check", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Scenario "smoke"`, "engine: tl2", "closed", "open@2000/s", "Cross-phase comparison"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenario string
		Phases   []struct {
			Phase     string
			Engine    string
			Succeeded int64
			Stats     map[string]uint64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json document does not decode: %v\n%s", err, data)
	}
	if doc.Scenario != "smoke" || len(doc.Phases) != 2 {
		t.Fatalf("scenario %q with %d phases, want smoke with 2:\n%s", doc.Scenario, len(doc.Phases), data)
	}
	for i, name := range []string{"closed", "open"} {
		ph := doc.Phases[i]
		if ph.Phase != name || ph.Engine != "tl2" || ph.Succeeded == 0 || ph.Stats["Commits"] == 0 {
			t.Errorf("phase %d = %+v, want %q on tl2 with successes and commits", i, ph, name)
		}
	}
}
