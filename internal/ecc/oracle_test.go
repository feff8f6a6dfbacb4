package ecc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestSingleByteOracle is the exhaustive codec oracle: for every entry
// that corrects a chip kill, engine-only ones included, it flips every
// stored byte of the codeword with each of the 255 nonzero masks. A
// single-byte error lies within one chip, so Correct must recover the line
// exactly — except LOT-ECC9, whose one-byte per-chip LED can alias and may
// flag the error uncorrectable — and must never return wrong bytes with a
// nil error.
func TestSingleByteOracle(t *testing.T) {
	for i, k := range allKeys() {
		if e, _ := Info(k); !e.ChipKillCorrect {
			continue
		}
		t.Run(k, func(t *testing.T) {
			t.Parallel()
			s, _ := Build(k, "")
			d := randLine(rand.New(rand.NewSource(int64(60+i))), s)
			clean, corr := s.Encode(d)
			uncorrectable, flips := 0, 0
			for c, shard := range clean.Shards {
				for b := range shard {
					for m := 1; m < 256; m++ {
						cw := clean.Clone()
						cw.Shards[c][b] ^= byte(m)
						flips++
						got, _, err := s.Correct(cw, corr)
						switch {
						case err == nil && !bytes.Equal(got, d):
							t.Fatalf("chip %d byte %d mask %#x: silent corruption", c, b, m)
						case errors.Is(err, ErrUncorrectable) && k == "lotecc9":
							uncorrectable++
						case err != nil:
							t.Fatalf("chip %d byte %d mask %#x: %v", c, b, m, err)
						}
					}
				}
			}
			if uncorrectable > 0 {
				t.Logf("%d of %d single-byte errors flagged uncorrectable", uncorrectable, flips)
			}
		})
	}
}
