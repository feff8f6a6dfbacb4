// Package report exposes every experiment of the paper's evaluation as a
// library call returning a structured result, instead of a CLI printing to
// stdout. cmd/eccsim, cmd/faultmc and the eccsimd daemon all dispatch
// through the one registry here, so the rendered bytes of an experiment are
// identical no matter which front end asked for it.
//
// The determinism contract the daemon's result cache is built on lives at
// this boundary: a Report's Text and Data depend only on the experiment id
// and the Params identity fields (Cycles, Warmup, Trials, Seed, CSV) —
// never on Workers, which is purely a throughput knob, and never on
// scheduling (see internal/parallel).
package report

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"eccparity/internal/sim"
)

// Params carries the experiment knobs. Workers is deliberately excluded
// from result identity (same seed ⇒ same bytes at any worker count), so
// callers hashing a Params for caching must leave it out — the json tag
// enforces that for the common encoding/json path.
type Params struct {
	Cycles float64 `json:"cycles"`
	Warmup int     `json:"warmup"`
	Trials int     `json:"trials"`
	Seed   int64   `json:"seed"`
	CSV    bool    `json:"csv,omitempty"`
	// Scheme selects the resilience scheme of scheme-aware experiments
	// (empty means the experiment's default). SchemeOptions carries the
	// scheme's constructor options in ecc.CanonicalOptions form. Both are
	// omitempty so requests that predate the scheme layer keep their exact
	// serialized identity — and therefore their content-address.
	Scheme        string `json:"scheme,omitempty"`
	SchemeOptions string `json:"scheme_options,omitempty"`
	Workers       int    `json:"-"`
}

// DefaultParams returns the full-fidelity budget of cmd/eccsim.
func DefaultParams() Params {
	return Params{Cycles: 400000, Warmup: 60000, Trials: 2000, Seed: 1}
}

// Normalized fills zero-valued knobs from DefaultParams, so partial
// requests (e.g. over HTTP) resolve to one canonical identity before
// hashing. A zero seed normalizes to the default seed 1.
func (p Params) Normalized() Params {
	d := DefaultParams()
	if p.Cycles <= 0 {
		p.Cycles = d.Cycles
	}
	if p.Warmup <= 0 {
		p.Warmup = d.Warmup
	}
	if p.Trials <= 0 {
		p.Trials = d.Trials
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Report is one experiment's result: the exact text the CLI prints plus the
// structured rows behind it (figure-specific types, JSON-serializable).
type Report struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Text       string `json:"text"`
	Data       any    `json:"data,omitempty"`
}

// Runner executes experiments for one Params, sharing the expensive
// (scheme × workload) evaluation matrices across figures the way
// `eccsim -exp all` always has. A Runner is not safe for concurrent use;
// create one per request.
type Runner struct {
	p        Params
	progress io.Writer
	ctx      context.Context // the active RunContext's context; Background between runs
	// store holds the evaluation matrices and Fig. 9 campaigns: the
	// Runner's own, or the one every Runner of an Executor shares.
	store *evalStore
}

// NewRunner builds a Runner. progress receives the done/total tickers of
// long campaigns (the CLIs pass stderr); nil silences them. Text output is
// never written to progress, so rendered bytes stay identical regardless.
func NewRunner(p Params, progress io.Writer) *Runner {
	return newRunner(p, progress, newEvalStore())
}

func newRunner(p Params, progress io.Writer, store *evalStore) *Runner {
	return &Runner{p: p, progress: progress, ctx: context.Background(), store: store}
}

// Params returns the Runner's parameters.
func (r *Runner) Params() Params { return r.p }

// opts translates Params into simulation options.
func (r *Runner) opts() []sim.Option {
	opts := []sim.Option{
		sim.WithCycles(r.p.Cycles), sim.WithWarmup(r.p.Warmup),
		sim.WithSeed(r.p.Seed), sim.WithWorkers(r.p.Workers),
	}
	if r.progress != nil {
		opts = append(opts, sim.WithProgress(r.progress))
	}
	return opts
}

// matrix returns the stored evaluation in t for the Runner's simulated
// identity (Cycles, Warmup, Seed) and class, filling it under the active
// run's context if needed. A canceled run caches nothing unless another
// Runner sharing the store finishes the matrix.
func (r *Runner) matrix(t *storeTable, class sim.SystemClass, layout func(*sim.Sim) *sim.Matrix) (*sim.Evaluation, error) {
	s, err := sim.New(r.opts()...)
	if err != nil {
		return nil, err
	}
	key := evalKey{cycles: r.p.Cycles, warmup: r.p.Warmup, seed: r.p.Seed, class: class}
	return r.store.evaluation(r.ctx, t, key, r.p.Workers, func() *sim.Matrix { return layout(s) })
}

// eval returns the (scheme × workload) matrix of the paper's schemes for a
// system class.
func (r *Runner) eval(class sim.SystemClass) (*sim.Evaluation, error) {
	return r.matrix(&r.store.evals, class, func(s *sim.Sim) *sim.Matrix { return s.Matrix(class, nil, nil) })
}

// fig9Rows returns the Fig. 9 bandwidth campaign's rows, in spec order.
func (r *Runner) fig9Rows() ([]sim.Fig9Row, error) {
	ev, err := r.matrix(&r.store.fig9, sim.DualEq, (*sim.Sim).Fig9Matrix)
	if err != nil {
		return nil, err
	}
	return ev.Fig9Rows(), nil
}

// spec is one registry entry. run renders the experiment's text into w and
// returns its structured data; the error is the underlying campaign's
// (typically ctx.Err() after a cancel), in which case the partial text is
// discarded.
type spec struct {
	source string // "eccsim", "faultmc" or "serve": which front end owns the id
	title  string
	run    func(r *Runner, w io.Writer) (any, error)
	// A non-empty defaultScheme makes the experiment scheme-aware: it
	// honours Params.Scheme/SchemeOptions, and an empty Params.Scheme
	// resolves to defaultScheme. codecLevel experiments drive the codec
	// itself and reject engine-only table entries (ecc.Entry.EngineOnly).
	defaultScheme string
	codecLevel    bool
}

// Run executes one experiment id and returns its Report. It cannot be
// interrupted; prefer RunContext.
func (r *Runner) Run(id string) (Report, error) {
	return r.RunContext(context.Background(), id)
}

// RunContext executes one experiment id under ctx and returns its Report.
// Canceling ctx interrupts the underlying simulation or Monte Carlo
// campaign at its checkpoint interval; the error then wraps ctx.Err() and
// no Report is produced. A completed Report is byte-identical regardless
// of ctx.
func (r *Runner) RunContext(ctx context.Context, id string) (Report, error) {
	sp, ok := registry[id]
	if !ok {
		return Report{}, fmt.Errorf("report: unknown experiment %q", id)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
	defer func() { r.ctx = context.Background() }()
	var buf bytes.Buffer
	data, err := sp.run(r, &buf)
	if err != nil {
		return Report{}, err
	}
	return Report{Experiment: id, Title: sp.title, Text: buf.String(), Data: data}, nil
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// Title returns the registered experiment's title ("" if unknown).
func Title(id string) string { return registry[id].title }

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// EccsimIDs returns the ids `eccsim -exp all` runs, in its (sorted)
// execution order.
func EccsimIDs() []string {
	out := []string{}
	for id, sp := range registry {
		if sp.source == "eccsim" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// FaultmcIDs returns the ids `faultmc -exp all` runs, in its execution
// order (fig2 first: its output opens without a leading blank line).
func FaultmcIDs() []string { return []string{"fig2", "fig8", "fig18"} }

// ServeIDs returns the daemon-first experiment ids, sorted: registered
// experiments outside both CLIs' historical `-exp all` sets (the CLIs
// still run them when named explicitly).
func ServeIDs() []string {
	out := []string{}
	for id, sp := range registry {
		if sp.source == "serve" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
