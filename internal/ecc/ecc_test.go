package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randLine(r *rand.Rand, s Scheme) []byte {
	d := make([]byte, s.Geometry().LineSize)
	r.Read(d)
	return d
}

// TestEncodeDecodeClean: every scheme round-trips clean data with no error
// detected and no correction applied.
func TestEncodeDecodeClean(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, name := range Names() {
		s := ByName(name)
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				d := randLine(r, s)
				cw, corr := s.Encode(d)
				if res := s.Detect(cw); res.ErrorDetected {
					t.Fatalf("clean codeword flagged: %+v", res)
				}
				if !bytes.Equal(s.Data(cw), d) {
					t.Fatal("Data() does not round-trip")
				}
				got, rep, err := s.Correct(cw, corr)
				if err != nil {
					t.Fatalf("Correct on clean codeword: %v", err)
				}
				if len(rep.CorrectedChips) != 0 {
					t.Fatalf("clean codeword needed correction: %+v", rep)
				}
				if !bytes.Equal(got, d) {
					t.Fatal("corrected data mismatch")
				}
			}
		})
	}
}

// TestSingleChipKill: for every scheme, killing any single data shard is
// detected and corrected.
func TestSingleChipKill(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	patterns := []byte{0x00, 0xFF, 0xA5}
	for _, name := range Names() {
		s := ByName(name)
		info, _ := Info(name)
		t.Run(name, func(t *testing.T) {
			if !info.ChipKillCorrect {
				t.Skipf("%s has no rank-level code: a chip kill is beyond it by design", name)
			}
			d := randLine(r, s)
			cwClean, corr := s.Encode(d)
			nData := dataShardCount(s, cwClean)
			for chip := 0; chip < nData; chip++ {
				for _, pat := range patterns {
					cw := cwClean.Clone()
					cw.CorruptChip(chip, pat)
					if bytes.Equal(cw.Shards[chip], cwClean.Shards[chip]) {
						continue // pattern equals original shard
					}
					if res := s.Detect(cw); !res.ErrorDetected {
						// Short per-chip checksums can collide (≈2^-8 for
						// LOT-ECC9's one-byte LED — true of real LOT-ECC
						// too). The correction-bit consistency check (the
						// scrubber's path) must still catch and repair it.
						got, _, err := s.Correct(cw, corr)
						if err != nil || !bytes.Equal(got, d) {
							t.Fatalf("chip %d pattern %#x: undetected AND unrepairable (err=%v)", chip, pat, err)
						}
						continue
					}
					got, rep, err := s.Correct(cw, corr)
					if err != nil {
						t.Fatalf("chip %d pattern %#x: %v", chip, pat, err)
					}
					if !bytes.Equal(got, d) {
						t.Fatalf("chip %d pattern %#x: wrong data", chip, pat)
					}
					if len(rep.CorrectedChips) == 0 {
						t.Fatalf("chip %d pattern %#x: no chip reported corrected", chip, pat)
					}
				}
			}
		})
	}
}

// dataShardCount returns how many leading shards carry data for a scheme.
func dataShardCount(s Scheme, cw *Codeword) int {
	switch v := s.(type) {
	case *OnDie:
		// Composite shards map 1:1 onto the base scheme's.
		return dataShardCount(v.Base(), cw)
	case *Chipkill:
		return v.data
	case *RAIM:
		return 4
	case *RAIMParity:
		return 4
	case *LOTECC:
		return len(cw.Shards) - 1
	case *LOTECC5RS:
		return len(cw.Shards) - 1
	case *MultiECC:
		return len(cw.Shards) - 1
	}
	return len(cw.Shards)
}

// TestSingleBitFlip: a one-bit error anywhere in a data shard is detected
// and corrected by every scheme.
func TestSingleBitFlip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, name := range Names() {
		s := ByName(name)
		t.Run(name, func(t *testing.T) {
			var onDie bool
			switch s.(type) {
			case *OnDie, *OnDieOnly:
				onDie = true
			}
			for trial := 0; trial < 30; trial++ {
				d := randLine(r, s)
				cw, corr := s.Encode(d)
				nData := dataShardCount(s, cw)
				chip := r.Intn(nData)
				byteIdx := r.Intn(len(cw.Shards[chip]))
				cw.Shards[chip][byteIdx] ^= 1 << uint(r.Intn(8))
				res := s.Detect(cw)
				if onDie {
					// The chip's corrector repairs a single-bit error
					// before the rank-level code ever sees it — the flip
					// must be INVISIBLE, not detected.
					if res.ErrorDetected {
						t.Fatalf("trial %d: on-die corrector leaked a single-bit flip in chip %d", trial, chip)
					}
				} else if !res.ErrorDetected {
					t.Fatalf("trial %d: bit flip in chip %d not detected", trial, chip)
				}
				got, _, err := s.Correct(cw, corr)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !bytes.Equal(got, d) {
					t.Fatalf("trial %d: wrong data", trial)
				}
			}
		})
	}
}

// TestDetectionChipFailure: killing the detection/checksum device must not
// corrupt data — correction recognizes the data as intact.
func TestDetectionChipFailure(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	cases := []struct {
		name    string
		s       Scheme
		detChip func(cw *Codeword) int
	}{
		{"lotecc5", NewLOTECC5(), func(cw *Codeword) int { return len(cw.Shards) - 1 }},
		{"lotecc9", NewLOTECC9(), func(cw *Codeword) int { return len(cw.Shards) - 1 }},
		{"multiecc", NewMultiECC(), func(cw *Codeword) int { return len(cw.Shards) - 1 }},
		{"raim18", NewRAIMParity(), func(cw *Codeword) int { return len(cw.Shards) - 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := randLine(r, tc.s)
			cw, corr := tc.s.Encode(d)
			cw.CorruptChip(tc.detChip(cw), 0x3C)
			got, _, err := tc.s.Correct(cw, corr)
			if err != nil {
				t.Fatalf("detection-chip failure not tolerated: %v", err)
			}
			if !bytes.Equal(got, d) {
				t.Fatal("data corrupted by detection-chip failure")
			}
		})
	}
}

// TestCorrectionBitsLinear: correction bits are GF(2)-linear in the data
// for the paper's evaluated schemes. (Linearity is a nice property, not a
// requirement: the overlay's parity stores XORs of correction-bit VALUES
// and recomputes peers' values from their data during reconstruction, so
// even non-linear functions — LOTECC5RS's embedded CRCs, which are affine
// because of their nonzero initial value — work.)
func TestCorrectionBitsLinear(t *testing.T) {
	for _, name := range Names() {
		if name == "lotecc5rs" {
			continue // embeds CRCs (affine, not linear, due to the 0xFFFF init)
		}
		s := ByName(name)
		if s.CorrectionSize() == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				a := randLine(r, s)
				b := randLine(r, s)
				ab := XorBytes(a, b)
				return bytes.Equal(s.CorrectionBits(ab),
					XorBytes(s.CorrectionBits(a), s.CorrectionBits(b)))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorrectionSizeMatchesBits ensures CorrectionSize agrees with the
// actual encoder output and with Encode's second return value.
func TestCorrectionSizeMatchesBits(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, name := range Names() {
		s := ByName(name)
		d := randLine(r, s)
		bits := s.CorrectionBits(d)
		if len(bits) != s.CorrectionSize() {
			t.Fatalf("%s: CorrectionBits len %d != CorrectionSize %d", name, len(bits), s.CorrectionSize())
		}
		_, corr := s.Encode(d)
		if !bytes.Equal(corr, bits) {
			t.Fatalf("%s: Encode correction bits disagree with CorrectionBits", name)
		}
	}
}

// TestRRatios verifies the paper's R values used in the Table III capacity
// formulas: 0.25 for LOT-ECC5, 0.5 for the RAIM ECC Parity base.
func TestRRatios(t *testing.T) {
	if got := R(NewLOTECC5()); got != 0.25 {
		t.Fatalf("LOT-ECC5 R = %v, want 0.25", got)
	}
	if got := R(NewRAIMParity()); got != 0.5 {
		t.Fatalf("RAIM-18 R = %v, want 0.5", got)
	}
	if got := R(NewLOTECC9()); got != 0.125 {
		t.Fatalf("LOT-ECC9 R = %v, want 0.125", got)
	}
}

// TestCapacityOverheads checks the Fig. 1 / Table III static overhead rows.
func TestCapacityOverheads(t *testing.T) {
	cases := []struct {
		name  string
		total float64
	}{
		{"chipkill36", 0.125},
		{"chipkill18", 0.125},
		{"lotecc9", 0.2656},
		{"lotecc5", 0.40625},
		{"raim", 0.40625},
	}
	for _, tc := range cases {
		s := ByName(tc.name)
		got := s.Overheads().Total()
		if diff := got - tc.total; diff > 0.005 || diff < -0.005 {
			t.Errorf("%s overhead = %.4f, want ≈%.4f", tc.name, got, tc.total)
		}
	}
	// Paper Fig. 1 claim: ≥50%-ish of overhead is correction bits for the
	// schemes it plots (chipkill36, RAIM, LOT-ECC I & II).
	for _, name := range []string{"chipkill36", "raim", "lotecc5"} {
		o := ByName(name).Overheads()
		if o.Correction < o.Detection {
			t.Errorf("%s: correction share (%.3f) below detection (%.3f)", name, o.Correction, o.Detection)
		}
	}
}

// TestGeometryTableII pins the Table II configuration rows.
func TestGeometryTableII(t *testing.T) {
	cases := []struct {
		name      string
		rank      string
		line      int
		ranksChan int
		chanDual  int
		chanQuad  int
		pinsDual  int
	}{
		{"chipkill36", "36 x4", 128, 1, 2, 4, 288},
		{"chipkill18", "18 x4", 64, 1, 4, 8, 288},
		{"lotecc5", "4 x16 + 1 x8", 64, 4, 4, 8, 288},
		{"lotecc9", "9 x8", 64, 2, 4, 8, 288},
		{"multiecc", "9 x8", 64, 2, 4, 8, 288},
		{"raim", "45 x4", 128, 1, 2, 4, 360},
		{"raim18", "18 x4", 64, 1, 5, 10, 360},
	}
	for _, tc := range cases {
		g := ByName(tc.name).Geometry()
		if g.RankConfig != tc.rank || g.LineSize != tc.line ||
			g.RanksPerChannel != tc.ranksChan || g.ChannelsDualEq != tc.chanDual ||
			g.ChannelsQuadEq != tc.chanQuad || g.PinsDualEq != tc.pinsDual {
			t.Errorf("%s geometry mismatch: %+v", tc.name, g)
		}
	}
}

// TestChipsPerRank checks device counts and pin widths.
func TestChipsPerRank(t *testing.T) {
	cases := map[string]struct{ chips, pins int }{
		"chipkill36": {36, 144},
		"chipkill18": {18, 72},
		"lotecc5":    {5, 72},
		"lotecc9":    {9, 72},
		"multiecc":   {9, 72},
		"raim":       {45, 180},
		"raim18":     {18, 72},
	}
	for name, want := range cases {
		g := ByName(name).Geometry()
		if g.ChipsPerRank() != want.chips {
			t.Errorf("%s: chips/rank = %d, want %d", name, g.ChipsPerRank(), want.chips)
		}
		if g.DataPinWidth() != want.pins {
			t.Errorf("%s: pin width = %d, want %d", name, g.DataPinWidth(), want.pins)
		}
	}
}

// TestWrongLineSizePanics: codec inputs are validated.
func TestWrongLineSizePanics(t *testing.T) {
	for _, name := range Names() {
		s := ByName(name)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Encode of wrong-size line must panic", name)
				}
			}()
			s.Encode(make([]byte, 3))
		}()
	}
}

// TestXorBytesPanicsOnMismatch guards the helper contract.
func TestXorBytesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XorBytes with mismatched lengths must panic")
		}
	}()
	XorBytes(make([]byte, 3), make([]byte, 4))
}

// TestCloneIsDeep verifies fault injection on a clone never leaks into the
// original codeword.
func TestCloneIsDeep(t *testing.T) {
	s := NewLOTECC9()
	d := make([]byte, 64)
	cw, _ := s.Encode(d)
	cl := cw.Clone()
	cl.CorruptChip(0, 0xFF)
	if bytes.Equal(cw.Shards[0], cl.Shards[0]) {
		t.Fatal("Clone shares shard storage")
	}
}

func BenchmarkSchemeEncode(b *testing.B) {
	for _, name := range Names() {
		s := ByName(name)
		d := make([]byte, s.Geometry().LineSize)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Encode(d)
			}
		})
	}
}

func BenchmarkSchemeDetect(b *testing.B) {
	for _, name := range Names() {
		s := ByName(name)
		d := make([]byte, s.Geometry().LineSize)
		cw, _ := s.Encode(d)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Detect(cw)
			}
		})
	}
}

func BenchmarkSchemeCorrectChipKill(b *testing.B) {
	for _, name := range []string{"chipkill36", "lotecc5", "multiecc", "raim18"} {
		s := ByName(name)
		d := make([]byte, s.Geometry().LineSize)
		for i := range d {
			d[i] = byte(i)
		}
		cwClean, corr := s.Encode(d)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cw := cwClean.Clone()
				cw.CorruptChip(0, 0x5A)
				if _, _, err := s.Correct(cw, corr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
