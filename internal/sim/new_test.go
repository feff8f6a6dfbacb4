package sim

import (
	"context"
	"errors"
	"testing"
)

// TestNewValidCell checks the happy path: a Sim built from valid options
// evaluates a one-cell grid to the same Result as RunContext on an
// identical configuration.
func TestNewValidCell(t *testing.T) {
	s, err := New(WithCycles(20000), WithWarmup(2000))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ev, err := s.Evaluate(context.Background(), QuadEq, []SchemeConfig{SchemeByKey("chipkill18")}, []string{"mcf"})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	cfg := DefaultConfig("chipkill18", QuadEq, "mcf")
	cfg.MeasureCycles = 20000
	cfg.WarmupAccesses = 2000
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got := ev.Results["chipkill18"]["mcf"]; got != want {
		t.Fatalf("Sim.Evaluate diverged from RunContext:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewRejectsUnknownCell checks that a cell the engine cannot run
// surfaces as a typed *ConfigError instead of a panic: an unknown scheme
// key from SchemeVariant, an unknown workload from Evaluate, and a bad
// budget from New.
func TestNewRejectsUnknownCell(t *testing.T) {
	evaluate := func(workload string) error {
		s, err := New()
		if err != nil {
			return err
		}
		_, err = s.Evaluate(context.Background(), QuadEq, []SchemeConfig{SchemeByKey("chipkill18")}, []string{workload})
		return err
	}
	cases := []struct {
		name  string
		err   func() error
		field string
	}{
		{"unknown scheme", func() error { _, err := SchemeVariant("nope", ""); return err }, "scheme"},
		{"unknown workload", func() error { return evaluate("nope") }, "Workload"},
		{"zero cycles", func() error { _, err := New(WithCycles(0)); return err }, "MeasureCycles"},
		{"negative warmup", func() error { _, err := New(WithWarmup(-1)); return err }, "WarmupAccesses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestRunContextCancel checks the tentpole property at the single-run
// level: a canceled context interrupts the engine promptly and the run
// reports ctx.Err() rather than a fabricated Result.
func TestRunContextCancel(t *testing.T) {
	cfg := DefaultConfig("chipkill18", QuadEq, "mcf")
	cfg.MeasureCycles = 1e9 // far longer than the test would tolerate
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestEvaluationContextCancel checks that a grid evaluation propagates
// cancellation instead of returning a partially filled Evaluation.
func TestEvaluationContextCancel(t *testing.T) {
	s, err := New(WithCycles(1e9))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.Evaluate(ctx, QuadEq, []SchemeConfig{SchemeByKey("chipkill18")}, []string{"mcf"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate on canceled ctx = %v, want context.Canceled", err)
	}
}
