package sim

// This file is the validated entry point to the engine's grids: build a
// *Sim once from functional options, get typed validation errors instead
// of panics, then Evaluate it (or lay out its Matrix for a shared fill)
// with a context that can cancel the engine mid-run. A single cell runs
// through RunContext with an explicit Config.

import (
	"context"
	"fmt"

	"eccparity/internal/parallel"
	"eccparity/internal/workload"
)

// ConfigError is the typed validation error of New: one field, one reason.
// Callers can errors.As for it to distinguish a bad configuration from a
// runtime failure.
type ConfigError struct {
	Field  string
	Reason string
}

// Error names the offending field and why it was rejected.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Reason)
}

// Sim is a validated simulation configuration. It is immutable after New
// and safe to share: Evaluate and Matrix copy the config per cell, so one
// Sim can drive concurrent grids.
type Sim struct {
	cfg  Config
	opts []Option
}

// New builds a Sim from the standard evaluation budget (baseConfig: eight
// cores, 8MB/16-way LLC, 400k measured cycles, 60k warmup accesses, seed 1)
// with the options applied, validating the result. It returns a
// *ConfigError — never panics — on an invalid combination.
func New(opts ...Option) (*Sim, error) {
	cfg := baseConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, opts: opts}, nil
}

// Config returns a copy of the validated configuration.
func (s *Sim) Config() Config { return s.cfg }

// Evaluate runs the (scheme × workload) matrix for a system class with the
// Sim's options; nil schemes mean PaperSchemes and nil workloads mean all.
// Results are keyed by each configuration's Key, so a parameterized
// variant from SchemeVariant runs like any table entry. Cells fan out over
// the worker pool (WithWorkers) with worker-count-invariant results;
// canceling ctx interrupts the in-flight cells at the engine's checkpoint
// interval and returns ctx's error. An unknown workload name is a
// *ConfigError.
func (s *Sim) Evaluate(ctx context.Context, class SystemClass, schemes []SchemeConfig, workloads []string) (*Evaluation, error) {
	for _, wl := range workloads {
		if _, ok := workload.ByName(wl); !ok {
			return nil, &ConfigError{Field: "Workload", Reason: fmt.Sprintf("unknown workload %q", wl)}
		}
	}
	m := s.Matrix(class, schemes, workloads)
	results, err := parallel.NewShared(m.Cells(), m.RunCell).Join(ctx, m.workers)
	if err != nil {
		return nil, err
	}
	return m.Evaluation(results), nil
}

// validate rejects configurations the engine would otherwise panic on (or
// silently mis-simulate), with one typed error per field.
func (c *Config) validate() error {
	switch {
	case c.MeasureCycles <= 0:
		return &ConfigError{Field: "MeasureCycles", Reason: fmt.Sprintf("must be > 0 (got %g)", c.MeasureCycles)}
	case c.WarmupAccesses < 0:
		return &ConfigError{Field: "WarmupAccesses", Reason: fmt.Sprintf("must be >= 0 (got %d)", c.WarmupAccesses)}
	case c.Cores < 1:
		return &ConfigError{Field: "Cores", Reason: fmt.Sprintf("must be >= 1 (got %d)", c.Cores)}
	case c.LLCBytes < 1:
		return &ConfigError{Field: "LLCBytes", Reason: fmt.Sprintf("must be >= 1 (got %d)", c.LLCBytes)}
	case c.LLCWays < 1:
		return &ConfigError{Field: "LLCWays", Reason: fmt.Sprintf("must be >= 1 (got %d)", c.LLCWays)}
	case c.MarkedBankFraction < 0 || c.MarkedBankFraction > 1:
		return &ConfigError{Field: "MarkedBankFraction", Reason: fmt.Sprintf("must be in [0, 1] (got %g)", c.MarkedBankFraction)}
	case c.ScrubLineInterval < 0:
		return &ConfigError{Field: "ScrubLineInterval", Reason: fmt.Sprintf("must be >= 0 (got %g)", c.ScrubLineInterval)}
	case c.PowerDownThreshold < 0:
		return &ConfigError{Field: "PowerDownThreshold", Reason: fmt.Sprintf("must be >= 0 (got %g)", c.PowerDownThreshold)}
	case c.SpeedBinFactor < 0:
		return &ConfigError{Field: "SpeedBinFactor", Reason: fmt.Sprintf("must be >= 0 (got %g)", c.SpeedBinFactor)}
	}
	return nil
}
