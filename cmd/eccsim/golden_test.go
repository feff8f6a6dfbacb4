package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"eccparity/internal/ecc"
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

// goldenFaultInjectHashes maps every served scheme key to the SHA-256 of
// `eccsim -exp faultinject -scheme <key> -trials 400 -seed 7` stdout at the
// reduced budget: a per-codec byte pin on the Monte Carlo fault campaign.
var goldenFaultInjectHashes = map[string]string{
	"chipkill18":     "f7d5f5bd3169c5be98cde82bab37121b2ba9a11292ff109fadc46ed09b079f71",
	"chipkill36":     "476ee81f0cc6e67ec4aa4fc4271ee22c9cbc30268cf193d8fde18b3dfec84ea3",
	"doublechipkill": "e2edf2c8a395fa1937233e28f7b1556c5c3cdafd5fae7a7de307349d86c698aa",
	"lotecc5":        "eadae39b324d3756d88058526b25e5486b0d0e5d45304704e300b6821679ab3c",
	"lotecc5rs":      "f48b4814aa885785159dce26b900123d848f0eaf46d62e5d24c817e6967d124f",
	"lotecc9":        "1da3ff9580a7e39d8eef4b0e1e0cd4c554a8a0896fee3c8b99844ec78ad1ec6b",
	"multiecc":       "c9a0e1a40e3d037a7116d8ea67ebaa5f332cd3739a5a216e467c7b8ef82ddb27",
	"ondie+chipkill": "cc0aeb8957c3a9969a15ecad9a056dae8a9dc8c0ffc659e1243fe5a4f075ccfd",
	"ondie+raim18":   "7849bd0d973c42f0b60cea436bc246321e73b62829a7d7ed26fbc2ff24057b9d",
	"ondie-sec":      "abdc4083c41131f3b6a660f14370dc135d721ee803a9c29be573573efadbc15a",
	"raim":           "04c34ac0037aff8f753b2f487910138b9445f6f1f4dc9f38e53cbc318001f9e0",
	"raim18":         "f849c6c4b636d9709e855c9b100d0e491bc2925b0f3ef2f6cf2832b6b1eaaa2c",
}

// TestGoldenFaultInjectEveryScheme pins the faultinject report of every
// registry scheme, so a codec rewrite that moves any scheme's bytes fails
// by name.
func TestGoldenFaultInjectEveryScheme(t *testing.T) {
	for _, k := range ecc.Names() {
		p := goldenParams
		p.Trials = 400
		p.Seed = 7
		p.Scheme = k
		if got, want := goldenRun(t, p, "faultinject"), goldenFaultInjectHashes[k]; got != want {
			t.Errorf("%s: stdout hash %s, want %s (faultinject output diverged from the golden baseline)", k, got, want)
		}
	}
}
