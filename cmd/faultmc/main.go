// Command faultmc runs the reliability Monte Carlo studies of the ECC
// Parity paper:
//
//	faultmc -exp fig2    # mean time between faults in different channels
//	faultmc -exp fig8    # EOL fraction of memory with materialized correction bits
//	faultmc -exp fig18   # P(multi-channel faults within one scrub window)
//	faultmc -exp all
//
// -workers bounds the Monte Carlo worker pool (default NumCPU) and -seed
// fixes the campaign seed. Results depend only on the seed, never on the
// worker count: the same seed emits byte-identical stdout at any -workers
// value. Progress goes to stderr.
//
// The experiments themselves live in internal/sim/report; this command is
// one of its front ends (cmd/eccsimd serves the same registry over HTTP).
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
	exp := flag.String("exp", "all", "experiment id: fig2, fig8, fig18, all")
	trials := flag.Int("trials", 4000, "Monte Carlo trials")
	common := cliflags.Register(flag.CommandLine)
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
	defer stopProf()

	ids := report.FaultmcIDs()
	if *exp != "all" {
		ids = nil
		for _, id := range report.FaultmcIDs() {
			if id == *exp {
				ids = []string{id}
			}
		}
		if ids == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
	// Ctrl-C / SIGTERM cancels the campaigns at the next worker-pool poll.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = runExperiments(ctx, ids, report.Params{
		Trials: *trials, Seed: common.Seed, Workers: common.Workers,
	}, os.Stdout, os.Stderr)
	if errors.Is(err, context.Canceled) {
		stopProf()
		fmt.Fprintln(os.Stderr, "faultmc: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// runExperiments runs the ids in order through the internal/sim/report
// registry and writes each report's text to stdout as it completes; the
// golden test drives the same path. progress receives the campaign tickers.
func runExperiments(ctx context.Context, ids []string, p report.Params, stdout, progress io.Writer) error {
	r := report.NewRunner(p, progress)
	for _, id := range ids {
		rep, err := r.RunContext(ctx, id)
		if err != nil {
			return err
		}
		io.WriteString(stdout, rep.Text)
	}
	return nil
}
