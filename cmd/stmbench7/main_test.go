package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapturing calls run with args and returns what it wrote to stdout.
func runCapturing(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunRejectsBadFlags: configuration errors come back from run, before
// any structure is built, naming the flag at fault.
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
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := runCapturing(t, c.args...)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%q): err = %v, want one naming %q", c.args, err, c.want)
			}
			if out != "" {
				t.Errorf("run(%q) printed a report before failing:\n%s", c.args, out)
			}
		})
	}
}

func TestListScenarios(t *testing.T) {
	out, err := runCapturing(t, "-list-scenarios")
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
// the structural invariants checked after the last phase.
func TestScenarioSmoke(t *testing.T) {
	out, err := runCapturing(t, "-scenario", "smoke", "-size", "tiny", "-scenario-scale", "0.05", "-g", "tl2", "-check")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`Scenario "smoke"`, "engine: tl2", "closed", "open@2000/s", "Cross-phase comparison"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
