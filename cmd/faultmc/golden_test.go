package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"eccparity/internal/sim/report"
)

// goldenAllHash is the SHA-256 of `faultmc -exp all -trials 400 -seed 5`
// stdout. It pins every Monte Carlo campaign the CLI runs (Fig. 2's
// cross-check, Fig. 8's EOL fractions) byte for byte across changes to the
// trial fan-out, at any worker count.
const goldenAllHash = "da0d36139463321ca93a263a9be2a7628708612f4391f2a4e55f6263a9743b2a"

func TestGoldenOutputSeed5(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h := sha256.New()
		p := report.Params{Trials: 400, Seed: 5, Workers: workers}
		if err := runExperiments(context.Background(), report.FaultmcIDs(), p, h, io.Discard); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenAllHash {
			t.Errorf("workers=%d: stdout hash %s, want %s (Monte Carlo output diverged from the golden baseline)",
				workers, got, goldenAllHash)
		}
	}
}
