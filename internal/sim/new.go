package sim

// This file is the unified, validated entry point to the engine. The two
// historical entry points — Run(cfg) for one cell and NewEvaluation(...)
// for a (scheme × workload) grid — both survive as thin shims, but new code
// (internal/sim/report, and through it every CLI and the daemon) goes
// through New: build a *Sim once from functional options, get typed
// validation errors instead of panics, then Run or Evaluate it with a
// context that can cancel the engine mid-run.

import (
	"context"
	"fmt"

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
// and safe to share: Run and Evaluate copy the config per call, so one Sim
// can drive concurrent runs.
type Sim struct {
	cfg  Config
	opts []Option
}

// New builds a Sim from the standard evaluation budget (baseConfig: eight
// cores, 8MB/16-way LLC, 400k measured cycles, 60k warmup accesses, seed 1)
// with the options applied, validating the result. It returns a
// *ConfigError — never panics — on an invalid combination, including
// options that themselves failed to apply (WithCell with an unknown key).
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

// Run executes the configured single cell, which must have been selected
// with WithCell (or WithSources for trace replay). Canceling ctx interrupts
// the engine at its checkpoint interval (ctxCheckEvery iterations) and
// returns ctx's error; a run that completes is byte-identical to the
// uninterruptible Run(cfg).
func (s *Sim) Run(ctx context.Context) (Result, error) {
	if s.cfg.Scheme.Base == nil {
		return Result{}, &ConfigError{Field: "Scheme", Reason: "no cell selected (use WithCell)"}
	}
	if s.cfg.Workload.Name == "" && s.cfg.Sources == nil {
		return Result{}, &ConfigError{Field: "Workload", Reason: "no workload selected (use WithCell or WithSources)"}
	}
	return RunContext(ctx, s.cfg)
}

// Evaluate runs the (scheme × workload) matrix for a system class with the
// Sim's options; nil schemes mean PaperSchemes and nil workloads mean all.
// Results are keyed by each configuration's Key, so a parameterized
// variant from SchemeVariant runs like any table entry. Cells fan out over
// the worker pool (WithWorkers) with worker-count-invariant results;
// canceling ctx interrupts the in-flight cells at the engine's checkpoint
// interval. A cell selected with WithCell is ignored here — the grid
// enumerates its own cells.
func (s *Sim) Evaluate(ctx context.Context, class SystemClass, schemes []SchemeConfig, workloads []string) (*Evaluation, error) {
	return evaluate(ctx, class, schemes, workloads, s.opts)
}

// WithCell selects the single (scheme, class, workload) cell that Run
// executes. Unknown scheme keys or workload names surface as a ConfigError
// from New instead of a panic.
func WithCell(schemeKey string, class SystemClass, workloadName string) Option {
	return func(c *Config) {
		sc, err := SchemeVariant(schemeKey, "")
		if err != nil {
			c.optErr = &ConfigError{Field: "Scheme", Reason: fmt.Sprintf("unknown scheme key %q", schemeKey)}
			return
		}
		spec, ok := workload.ByName(workloadName)
		if !ok {
			c.optErr = &ConfigError{Field: "Workload", Reason: fmt.Sprintf("unknown workload %q", workloadName)}
			return
		}
		c.Scheme = sc
		c.Class = class
		c.Workload = spec
	}
}

// WithSources drives the cores from recorded access streams (trace replay)
// instead of live generators; len(sources) must equal the core count.
func WithSources(sources []workload.Source) Option {
	return func(c *Config) { c.Sources = sources }
}

// validate rejects configurations the engine would otherwise panic on (or
// silently mis-simulate), with one typed error per field.
func (c *Config) validate() error {
	if c.optErr != nil {
		return c.optErr
	}
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
	if c.Sources != nil && len(c.Sources) != c.Cores {
		return &ConfigError{Field: "Sources", Reason: fmt.Sprintf("%d sources for %d cores", len(c.Sources), c.Cores)}
	}
	return nil
}
