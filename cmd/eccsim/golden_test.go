package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"testing"
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

// goldenRun executes the experiment dispatcher on exp with stdout captured
// and returns the SHA-256 of everything it printed.
func goldenRun(t *testing.T, exp string, p runParams) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()

	h := sha256.New()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(h, r)
		done <- err
	}()

	runErr := runExperiments(context.Background(), exp, p)
	w.Close()
	os.Stdout = old
	if err := <-done; err != nil {
		t.Fatalf("draining stdout: %v", err)
	}
	if runErr != nil {
		t.Fatalf("runExperiments: %v", runErr)
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
		if got := goldenRun(t, "all", p); got != goldenAllHash {
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
		if got := goldenRun(t, "harpprofile", p); got != goldenHarpHash {
			t.Errorf("workers=%d: stdout hash %s, want %s (HARP profiling output diverged from the golden baseline)",
				workers, got, goldenHarpHash)
		}
	}
}

func TestRunExperimentsRejectsUnknownID(t *testing.T) {
	p := goldenParams
	p.Progress = io.Discard
	if err := runExperiments(context.Background(), "fig99", p); !errors.Is(err, errUnknownExperiment) {
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
	if err := runExperiments(ctx, "fig9", p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
