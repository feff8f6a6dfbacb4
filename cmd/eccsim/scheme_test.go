package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// captureRun executes runExperiments and returns what it printed.
func captureRun(t *testing.T, exp string, p runParams) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := runExperiments(context.Background(), exp, p, &sb)
	return sb.String(), err
}

// TestSchemeFlagSelectsScheme: the daemon-first ids run from this CLI when
// named explicitly, and -scheme changes which scheme they evaluate.
func TestSchemeFlagSelectsScheme(t *testing.T) {
	p := goldenParams
	p.Trials = 8
	p.Progress = io.Discard

	p.Scheme = "ondie-sec"
	out, err := captureRun(t, "faultinject", p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "on-die SEC") || !strings.Contains(out, "chip-kill") {
		t.Errorf("faultinject -scheme ondie-sec output:\n%s", out)
	}

	p.Scheme = ""
	base, err := captureRun(t, "faultinject", p)
	if err != nil {
		t.Fatal(err)
	}
	if base == out {
		t.Error("default scheme and ondie-sec produced identical output")
	}
}

// TestSchemeFlagValidation: scheme flags on scheme-blind experiments and
// unknown schemes fail before any output, and -exp all rejects them.
func TestSchemeFlagValidation(t *testing.T) {
	p := goldenParams
	p.Trials = 8
	p.Progress = io.Discard

	p.Scheme = "chipkill36"
	if out, err := captureRun(t, "fig1", p); err == nil || out != "" {
		t.Errorf("scheme on a scheme-blind experiment: err=%v out=%q, want error with no output", err, out)
	}
	if out, err := captureRun(t, "all", p); err == nil || out != "" {
		t.Errorf("-exp all with a scheme: err=%v out=%q, want error with no output", err, out)
	}
	p.Scheme = "nope"
	if _, err := captureRun(t, "faultinject", p); err == nil {
		t.Error("unknown scheme must error")
	}
}
