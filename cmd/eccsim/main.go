// Command eccsim regenerates the ECC Parity paper's evaluation tables and
// figures from the simulator and the reliability Monte Carlo models. Each
// experiment is addressed by its paper id:
//
//	eccsim -exp fig1      # capacity overhead breakdown
//	eccsim -exp table2    # evaluated ECC configurations
//	eccsim -exp table3    # capacity overheads incl. end-of-life Monte Carlo
//	eccsim -exp fig9      # workload bandwidth characterization
//	eccsim -exp fig10     # memory EPI reduction, quad-equivalent systems
//	eccsim -exp fig11     # memory EPI reduction, dual-equivalent systems
//	eccsim -exp fig12     # dynamic EPI reduction (quad)
//	eccsim -exp fig13     # background EPI reduction (quad)
//	eccsim -exp fig14     # performance normalized (quad)
//	eccsim -exp fig15     # performance normalized (dual)
//	eccsim -exp fig16     # accesses per instruction normalized (quad)
//	eccsim -exp fig17     # accesses per instruction normalized (dual)
//	eccsim -exp table1    # core microarchitecture
//	eccsim -exp counters  # §III-E error-counter SRAM budget
//	eccsim -exp hpcstall  # §VI-B HPC stall estimate
//	eccsim -exp undetected# §VI-D undetectable error estimate
//	eccsim -exp mixedrank # §VI-A mixed narrow/wide ranks
//	eccsim -exp all       # everything above
//
// The reliability Monte Carlo studies run when named; they are not part of
// -exp all:
//
//	eccsim -exp fig2      # mean time between faults in different channels
//	eccsim -exp fig8      # EOL fraction of memory with materialized correction bits
//	eccsim -exp fig18     # P(multi-channel faults within one scrub window)
//
// So do the daemon-first scheme-aware experiments (schemeeval, faultinject,
// harpprofile); -scheme and -scheme-options select their resilience scheme:
//
//	eccsim -exp faultinject -scheme ondie+raim18
//	eccsim -exp schemeeval -scheme ondie+chipkill -scheme-options '{"passthrough":true}'
//
// Use -cycles and -warmup to trade fidelity for speed. -workers bounds the
// worker pool the simulation grid and Monte Carlo fan out over (default
// NumCPU) and -seed fixes the workload/Monte Carlo seed. Results depend
// only on the seed, never on the worker count: the same seed emits
// byte-identical stdout at any -workers value. Progress goes to stderr.
//
// The experiments themselves live in internal/sim/report; this command runs
// every id of its registry (cmd/eccsimd serves the same registry over HTTP).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"eccparity/internal/cliflags"
	"eccparity/internal/sim/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1..fig18, table1..table3, counters, hpcstall, undetected, all)")
	cycles := flag.Float64("cycles", 400000, "measured cycles per simulation")
	warmup := flag.Int("warmup", 60000, "per-core LLC warmup accesses")
	trials := flag.Int("trials", 2000, "Monte Carlo trials for EOL studies")
	scheme := flag.String("scheme", "", "resilience scheme for scheme-aware experiments (empty = experiment default; eccsimd's GET /v1/schemes lists keys)")
	schemeOptions := flag.String("scheme-options", "", `scheme constructor options JSON, e.g. '{"passthrough":true}'`)
	common := cliflags.Register(flag.CommandLine)
	csv := flag.Bool("csv", false, "emit comparison figures as CSV rows")
	flag.Parse()

	if err := cliflags.CheckTrials(*trials); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := common.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := common.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels the context; the engine observes it at its
	// next checkpoint and the run stops within milliseconds, mid-experiment.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runErr := runExperiments(ctx, *exp, runParams{
		Cycles:        *cycles,
		Warmup:        *warmup,
		Trials:        *trials,
		Seed:          common.Seed,
		Workers:       common.Workers,
		Scheme:        *scheme,
		SchemeOptions: *schemeOptions,
		CSV:           *csv,
		Progress:      os.Stderr,
	}, os.Stdout)
	stopProf()
	switch {
	case errors.Is(runErr, errUnknownExperiment):
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	case errors.Is(runErr, context.Canceled):
		fmt.Fprintln(os.Stderr, "eccsim: interrupted")
		os.Exit(130)
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "eccsim: %v\n", runErr)
		os.Exit(1)
	}
}

// errUnknownExperiment marks an id outside the report registry.
var errUnknownExperiment = errors.New("unknown experiment")

// runParams carries the CLI knobs into the experiment dispatcher; the golden
// regression test drives the same path at a reduced budget.
type runParams struct {
	Cycles        float64
	Warmup        int
	Trials        int
	Seed          int64
	Workers       int
	Scheme        string
	SchemeOptions string
	CSV           bool
	Progress      io.Writer
}

// runExperiments dispatches one experiment id (or "all") through the
// internal/sim/report registry and writes each report's text to stdout as
// it completes. Unknown ids return errUnknownExperiment; a canceled ctx
// returns its error with nothing further printed. The output depends only
// on the params, never on scheduling.
func runExperiments(ctx context.Context, exp string, p runParams, stdout io.Writer) error {
	params := report.Params{
		Cycles: p.Cycles, Warmup: p.Warmup, Trials: p.Trials,
		Seed: p.Seed, Workers: p.Workers, CSV: p.CSV,
		Scheme: p.Scheme, SchemeOptions: p.SchemeOptions,
	}
	ids := report.AllIDs()
	if exp != "all" {
		if !report.Known(exp) {
			return fmt.Errorf("%w: %q", errUnknownExperiment, exp)
		}
		ids = []string{exp}
	}
	// Scheme flags are validated and canonicalized through the same
	// normalization path the daemon hashes; experiments that take no scheme
	// run with the exact params they always have (the golden byte pin).
	if exp == "all" {
		if params.Scheme != "" || params.SchemeOptions != "" {
			return errors.New("-scheme/-scheme-options apply to a single scheme-aware experiment, not -exp all")
		}
	} else if params.Scheme != "" || params.SchemeOptions != "" || report.SchemeAware(exp) {
		norm, err := params.NormalizedFor(exp)
		if err != nil {
			return err
		}
		params = norm
	}
	r := report.NewRunner(params, p.Progress)
	for _, id := range ids {
		rep, err := r.RunContext(ctx, id)
		if err != nil {
			return err
		}
		io.WriteString(stdout, rep.Text)
	}
	return nil
}
