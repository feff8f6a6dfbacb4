package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"eccparity/internal/sim/report"
)

// goldenAllHash is the SHA-256 of `eccsim -exp all` stdout at the reduced
// budget below, captured from the pre-optimization engine (PR 1 state,
// commit 1dad368) at seed 1. The hot-path rework of the simulation engine
// must keep every byte of this output identical: the hash pins both the
// determinism guarantee and the numeric equivalence of the optimized
// engine, at any worker count.
const goldenAllHash = "0949639dce5f84f86933a2a77eb4e9f759e640ec4663adff796c42c0a33a68e8"

// goldenParams is the reduced budget: big enough that every experiment
// exercises its real code path (warmed cache, ECC/XOR steady state, Monte
// Carlo percentiles), small enough to run under -race in CI.
var goldenParams = runParams{
	Cycles:  8000,
	Warmup:  1000,
	Trials:  40,
	Seed:    1,
	Workers: 1,
}

// goldenHarpHash is the SHA-256 of `eccsim -exp harpprofile -trials 40
// -seed 3` stdout: the HARP profiling campaign's bytes, which the `-exp
// all` set does not run.
const goldenHarpHash = "775b72f3453d2cdf1dd8c4e7315c9ba67878dca6223bd0a6d03f98aaa3453538"

// goldenMonteCarloHash is the SHA-256 of the concatenated stdout of
// `eccsim -exp fig2`, `-exp fig8` and `-exp fig18`, each at -trials 400
// -seed 5. It pins every reliability Monte Carlo campaign (Fig. 2's
// cross-check, Fig. 8's EOL fractions, Fig. 18's scrub windows) byte for
// byte across changes to the trial fan-out, at any worker count.
const goldenMonteCarloHash = "da0d36139463321ca93a263a9be2a7628708612f4391f2a4e55f6263a9743b2a"

// goldenRun executes the experiment dispatcher on each exp in turn and
// returns the SHA-256 of everything they printed.
func goldenRun(t *testing.T, p runParams, exps ...string) string {
	t.Helper()
	h := sha256.New()
	for _, exp := range exps {
		if err := runExperiments(context.Background(), exp, p, h); err != nil {
			t.Fatalf("runExperiments(%s): %v", exp, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOutputSeed1 asserts that the full `-exp all` pipeline emits
// byte-identical stdout to the unoptimized engine at seed 1, both serially
// and with a fan-out pool — the end-to-end determinism + numeric
// equivalence regression for the hot-path optimization work.
func TestGoldenOutputSeed1(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := goldenParams
		p.Workers = workers
		if got := goldenRun(t, p, "all"); got != goldenAllHash {
			t.Errorf("workers=%d: stdout hash %s, want %s (engine output diverged from the golden baseline)",
				workers, got, goldenAllHash)
		}
	}
}

// TestGoldenHarpProfileSeed3 pins the harpprofile report bytes at workers
// 1 and 4.
func TestGoldenHarpProfileSeed3(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := runParams{Trials: 40, Seed: 3, Workers: workers}
		if got := goldenRun(t, p, "harpprofile"); got != goldenHarpHash {
			t.Errorf("workers=%d: stdout hash %s, want %s (HARP profiling output diverged from the golden baseline)",
				workers, got, goldenHarpHash)
		}
	}
}

// TestGoldenOutputSeed5 pins the three Monte Carlo figures, run one -exp
// at a time, at workers 1 and 4.
func TestGoldenOutputSeed5(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := runParams{Trials: 400, Seed: 5, Workers: workers}
		if got := goldenRun(t, p, "fig2", "fig8", "fig18"); got != goldenMonteCarloHash {
			t.Errorf("workers=%d: stdout hash %s, want %s (Monte Carlo output diverged from the golden baseline)",
				workers, got, goldenMonteCarloHash)
		}
	}
}

// TestRunExperimentsAcceptsEveryID: every registered experiment id runs
// from -exp, the Monte Carlo figures and daemon-first ids included.
func TestRunExperimentsAcceptsEveryID(t *testing.T) {
	p := runParams{Cycles: 2000, Warmup: 200, Trials: 8, Seed: 1, Progress: io.Discard}
	for _, id := range report.IDs() {
		var out strings.Builder
		if err := runExperiments(context.Background(), id, p, &out); err != nil {
			t.Errorf("-exp %s: %v", id, err)
		} else if out.Len() == 0 {
			t.Errorf("-exp %s printed nothing", id)
		}
	}
}

func TestRunExperimentsRejectsUnknownID(t *testing.T) {
	p := goldenParams
	p.Progress = io.Discard
	if err := runExperiments(context.Background(), "fig99", p, io.Discard); !errors.Is(err, errUnknownExperiment) {
		t.Fatalf("err = %v, want errUnknownExperiment", err)
	}
}

// TestRunExperimentsCanceledPrintsNothing: a pre-canceled context stops the
// dispatcher before any simulation output reaches stdout.
func TestRunExperimentsCanceledPrintsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := goldenParams
	p.Progress = io.Discard
	if err := runExperiments(ctx, "fig9", p, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
