package ecc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// Scheme-specific behaviours beyond the generic contract.

func TestChipkill36DoubleChipDetectedNotMiscorrected(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	s := NewChipkill36()
	for trial := 0; trial < 50; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		a, b := r.Intn(32), r.Intn(32)
		for a == b {
			b = r.Intn(32)
		}
		cw.XorChip(a, byte(1+r.Intn(255)))
		cw.XorChip(b, byte(1+r.Intn(255)))
		if res := s.Detect(cw); !res.ErrorDetected {
			t.Fatalf("trial %d: double chip error not detected", trial)
		}
		got, _, err := s.Correct(cw, corr)
		if err == nil && bytes.Equal(got, d) {
			t.Fatalf("trial %d: double chip error silently produced original data", trial)
		}
		// The correct-one/detect-two policy should flag this.
		if err == nil {
			t.Fatalf("trial %d: double chip error miscorrected without flag", trial)
		}
	}
}

func TestChipkill36CorruptedCorrectionBitsTolerated(t *testing.T) {
	// A fault in the chips storing correction bits must not corrupt data:
	// RS(36,32) treats the bad check symbol as the single error.
	r := rand.New(rand.NewSource(21))
	s := NewChipkill36()
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	corr[0] ^= 0x55
	got, _, err := s.Correct(cw, corr)
	if err != nil {
		t.Fatalf("corrupted correction symbol not tolerated: %v", err)
	}
	if !bytes.Equal(got, d) {
		t.Fatal("data corrupted")
	}
}

func TestChipkill18DetectionCoverageReduced(t *testing.T) {
	// With only 2 check symbols, a 2-chip error can miscorrect — the
	// paper's "potentially slightly impacts error detection coverage".
	// We only require that *single* chip errors always decode correctly,
	// which the generic tests cover; here we document the failure mode by
	// checking that at least some double errors are NOT flagged as
	// uncorrectable (they alias into a valid single-error syndrome).
	r := rand.New(rand.NewSource(22))
	s := NewChipkill18()
	aliased := 0
	for trial := 0; trial < 200; trial++ {
		d := randLine(r, s)
		cw, _ := s.Encode(d)
		cw.XorChip(0, byte(1+r.Intn(255)))
		cw.XorChip(1, byte(1+r.Intn(255)))
		if got, _, err := s.Correct(cw, nil); err == nil && !bytes.Equal(got, d) {
			aliased++
		}
	}
	if aliased == 0 {
		t.Skip("no aliasing observed in 200 trials (acceptable: stronger than commercial)")
	}
}

func TestLOTECCGECGroupFactors(t *testing.T) {
	if e, _ := Info("lotecc5"); e.LinesPerECCLine != 4 {
		t.Error("LOT-ECC5 GEC line must cover 4 data lines")
	}
	if e, _ := Info("lotecc9"); e.LinesPerECCLine != 8 {
		t.Error("LOT-ECC9 GEC line must cover 8 data lines")
	}
}

func TestLOTECC5StaleGECDetected(t *testing.T) {
	// Correcting with stale correction bits (wrong line version) must not
	// fabricate data: either error out or return the line as stored.
	r := rand.New(rand.NewSource(23))
	s := NewLOTECC5()
	d1 := randLine(r, s)
	d2 := randLine(r, s)
	cw, _ := s.Encode(d1)
	_, staleCorr := s.Encode(d2)
	cw.CorruptChip(0, 0xEE)
	if got, _, err := s.Correct(cw, staleCorr); err == nil && bytes.Equal(got, d1) {
		t.Fatal("stale GEC produced a confident wrong repair equal to original (impossible)")
	}
}

func TestLOTECCTwoChipFailureUncorrectable(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, s := range []*LOTECC{NewLOTECC5(), NewLOTECC9()} {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		cw.CorruptChip(0, 0x11)
		cw.CorruptChip(1, 0x22)
		if _, _, err := s.Correct(cw, corr); err == nil {
			t.Errorf("%s: two dead data chips must be uncorrectable", s.Name())
		}
	}
}

func TestMultiECCLineCoverage(t *testing.T) {
	// The capacity overhead compacts 64 data lines per ECC line: 16B of T2
	// checks per line, XOR-compacted over 64 lines, is 16·1.125/(64·64)
	// correction storage, Table III's 12.9% with the checksum chip...
	if meLinesPerECCLine != 64 {
		t.Fatalf("meLinesPerECCLine = %d, want 64", meLinesPerECCLine)
	}
	o := NewMultiECC().Overheads()
	if want := 16.0 * 1.125 / (64 * 64); o.Correction != want {
		t.Fatalf("correction overhead %g, want %g", o.Correction, want)
	}
	if total := o.Detection + o.Correction; total < 0.1285 || total >= 0.1295 {
		t.Fatalf("total overhead %.4f, want Table III's 12.9%%", total)
	}
	// ...while the timing engine's ECC-line traffic covers 16 lines per
	// ECC line: known divergence 5 of EXPERIMENTS.md.
	e, ok := Info("multiecc")
	if !ok {
		t.Fatal("no multiecc registry entry")
	}
	if e.Traffic != TrafficECCLine || e.LinesPerECCLine != 16 {
		t.Fatalf("multiecc traffic %v over %d lines per ECC line, want ECC-line traffic over 16", e.Traffic, e.LinesPerECCLine)
	}
}

func TestMultiECCLocalizationByTrial(t *testing.T) {
	// Multi-ECC has no localizing checksum; verify the trial decoder finds
	// the right chip for every position.
	r := rand.New(rand.NewSource(25))
	s := NewMultiECC()
	d := randLine(r, s)
	cwClean, corr := s.Encode(d)
	for chip := 0; chip < meDataChips; chip++ {
		cw := cwClean.Clone()
		cw.CorruptChip(chip, 0x99)
		got, rep, err := s.Correct(cw, corr)
		if err != nil {
			t.Fatalf("chip %d: %v", chip, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("chip %d: wrong data", chip)
		}
		if len(rep.CorrectedChips) != 1 || rep.CorrectedChips[0] != chip {
			t.Fatalf("chip %d: localized to %v", chip, rep.CorrectedChips)
		}
	}
}

func TestRAIMFullDIMMKill(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	s := NewRAIM()
	d := randLine(r, s)
	cwClean, corr := s.Encode(d)
	for dimm := 0; dimm < raimDIMMs; dimm++ {
		for _, pat := range []byte{0x00, 0xFF} {
			cw := cwClean.Clone()
			cw.CorruptChip(dimm, pat)
			got, rep, err := s.Correct(cw, corr)
			if err != nil {
				t.Fatalf("DIMM %d pattern %#x: %v", dimm, pat, err)
			}
			if !bytes.Equal(got, d) {
				t.Fatalf("DIMM %d: wrong data", dimm)
			}
			if !rep.UsedErasure {
				t.Fatalf("DIMM %d: expected erasure correction", dimm)
			}
		}
	}
}

func TestRAIMTwoDIMMsUncorrectable(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	s := NewRAIM()
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	cw.CorruptChip(0, 0xDE)
	cw.CorruptChip(2, 0xAD)
	if _, _, err := s.Correct(cw, corr); err == nil {
		t.Fatal("two dead DIMMs must be uncorrectable")
	}
}

func TestRAIMParityDoubleGroupErasure(t *testing.T) {
	// The P/Q pair corrects two group failures when both are localized by
	// their checksums.
	r := rand.New(rand.NewSource(28))
	s := NewRAIMParity()
	for trial := 0; trial < 30; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		perm := r.Perm(rpGroups)
		cw.CorruptChip(perm[0], byte(1+r.Intn(255)))
		cw.CorruptChip(perm[1], byte(1+r.Intn(255)))
		got, rep, err := s.Correct(cw, corr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("trial %d: wrong data", trial)
		}
		if len(rep.CorrectedChips) != 2 {
			t.Fatalf("trial %d: corrected %v", trial, rep.CorrectedChips)
		}
	}
}

func TestRAIMParityLocateWithoutChecksum(t *testing.T) {
	// Corrupt a group AND its checksum entry so detection is blind in the
	// right place but P/Q still locate and repair it... here instead we
	// corrupt data in a way that keeps the group checksum accidentally
	// valid is hard to construct; so we test the no-suspect path directly
	// by zapping the detection shard to match the corrupted data.
	r := rand.New(rand.NewSource(29))
	s := NewRAIMParity()
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	g := 2
	cw.XorChip(g, 0x40)
	// Recompute the detection entry so Detect sees nothing.
	sum := checksum16(cw.Shards[g])
	cw.Shards[rpGroups][2*g] = sum[0]
	cw.Shards[rpGroups][2*g+1] = sum[1]
	if res := s.Detect(cw); res.ErrorDetected {
		t.Fatal("setup: detection should be blind")
	}
	got, rep, err := s.Correct(cw, corr)
	if err != nil {
		t.Fatalf("P/Q localization failed: %v", err)
	}
	if !bytes.Equal(got, d) {
		t.Fatal("wrong data")
	}
	if len(rep.CorrectedChips) != 1 || rep.CorrectedChips[0] != g {
		t.Fatalf("localized to %v, want [%d]", rep.CorrectedChips, g)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"chipkill18", "chipkill36", "doublechipkill", "lotecc5", "lotecc5rs", "lotecc9", "multiecc", "ondie+chipkill", "ondie+raim18", "ondie-sec", "raim", "raim18"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d schemes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry order: got %v", got)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name must return nil")
	}
}

func TestChecksumDetectsStuckAt(t *testing.T) {
	// Dead-device patterns must not collide with typical shard sums.
	shard := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sum := checksum16(shard)
	zero := make([]byte, 8)
	if checksum16(zero) == sum {
		t.Fatal("stuck-at-zero collides")
	}
	ones := bytes.Repeat([]byte{0xFF}, 8)
	if checksum16(ones) == sum {
		t.Fatal("stuck-at-one collides")
	}
	if checksum16(zero) == [2]byte{} {
		t.Fatal("all-zero shard must not checksum to zero (0xFFFF init)")
	}
}

// TestChecksumNeverMissesFixedXORPattern: the CRC guarantee the schemes
// rely on — any fixed nonzero XOR pattern changes the checksum for EVERY
// data value (an additive Fletcher sum can cancel; a CRC cannot).
func TestChecksumNeverMissesFixedXORPattern(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for trial := 0; trial < 300; trial++ {
		shard := make([]byte, 16)
		r.Read(shard)
		mask := byte(1 + r.Intn(255))
		corrupted := make([]byte, 16)
		for i := range shard {
			corrupted[i] = shard[i] ^ mask
		}
		if checksum16(shard) == checksum16(corrupted) {
			t.Fatalf("trial %d: CRC missed constant mask %#x", trial, mask)
		}
	}
}

func TestDoubleChipkillTwoChipKill(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	s := NewDoubleChipkill()
	for trial := 0; trial < 50; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		perm := r.Perm(34)
		cw.CorruptChip(perm[0], byte(1+r.Intn(255)))
		cw.CorruptChip(perm[1], byte(1+r.Intn(255)))
		got, rep, err := s.Correct(cw, corr)
		if err != nil {
			t.Fatalf("trial %d: two dead chips must correct: %v", trial, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("trial %d: wrong data", trial)
		}
		want := []int{perm[0], perm[1]}
		slices.Sort(want)
		if !slices.Equal(rep.CorrectedChips, want) {
			t.Fatalf("trial %d: CorrectedChips %v, want %v in ascending order", trial, rep.CorrectedChips, want)
		}
	}
}

func TestDoubleChipkillThreeChipsFlagged(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	s := NewDoubleChipkill()
	for trial := 0; trial < 50; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		perm := r.Perm(32)
		for i := 0; i < 3; i++ {
			cw.XorChip(perm[i], byte(1+r.Intn(255)))
		}
		if got, _, err := s.Correct(cw, corr); err == nil && bytes.Equal(got, d) == false {
			t.Fatalf("trial %d: three dead chips silently miscorrected", trial)
		} else if err == nil {
			t.Fatalf("trial %d: three dead chips must be flagged (distance 9 locates 3 but policy detects)", trial)
		}
	}
}

func TestDoubleChipkillROverhead(t *testing.T) {
	s := NewDoubleChipkill()
	if got := R(s); got != 0.1875 {
		t.Fatalf("R = %v, want 0.1875 (24B per 128B line)", got)
	}
	if got := s.Overheads().Total(); got != 0.25 {
		t.Fatalf("overhead %v, want 25%% (8 of 32)", got)
	}
}

// TestLOTECC5RSAddressErrorDetected is the §VI-D scenario: a chip with an
// address-decoder fault returns another row's (self-consistent) data. An
// intra-chip checksum travels with the wrong data and matches it, so
// plain LOT-ECC cannot see the error; the RS inter-device code can.
func TestLOTECC5RSAddressErrorDetected(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	s := NewLOTECC5RS()
	lineA := randLine(r, s)
	lineB := randLine(r, s)
	cwA, corrA := s.Encode(lineA)
	cwB, _ := s.Encode(lineB)

	// Chip 1 answers with row B's shard instead of row A's.
	cwA.Shards[1] = append([]byte(nil), cwB.Shards[1]...)

	if det := s.Detect(cwA); !det.ErrorDetected {
		t.Fatal("inter-device RS code must detect the address error on the fly")
	}
	got, rep, err := s.Correct(cwA, corrA)
	if err != nil {
		t.Fatalf("address error must be correctable: %v", err)
	}
	if !bytes.Equal(got, lineA) {
		t.Fatal("wrong data after address-error repair")
	}
	if len(rep.CorrectedChips) != 1 || rep.CorrectedChips[0] != 1 {
		t.Fatalf("localized to %v, want [1]", rep.CorrectedChips)
	}
}

// TestLOTECC5RSAddressErrorInvisibleToIntraChipChecksum documents the
// baseline blind spot §VI-D fixes: if detection were purely intra-chip,
// wrong-row data carrying its own checksum passes (here emulated by
// CRC-checking the swapped shard in isolation).
func TestLOTECC5RSAddressErrorInvisibleToIntraChipChecksum(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	s := NewLOTECC5RS()
	lineB := randLine(r, s)
	cwB, _ := s.Encode(lineB)
	// The wrong-row shard is internally consistent: an intra-chip checksum
	// computed over it matches, so a LOT-ECC-style check would pass.
	swapped := cwB.Shards[1]
	if !checksumMatches(swapped, checksum16(swapped)) {
		t.Fatal("sanity: the shard must be self-consistent")
	}
}

// TestLOTECC5RSGeometryMatchesLOTECC5: §VI-D requires no change to rank
// size, line size or capacity overhead.
func TestLOTECC5RSGeometryMatchesLOTECC5(t *testing.T) {
	a, b := NewLOTECC5RS(), NewLOTECC5()
	if a.Geometry().RankConfig != b.Geometry().RankConfig ||
		a.Geometry().LineSize != b.Geometry().LineSize {
		t.Fatal("geometry must match LOT-ECC5")
	}
	if a.Overheads() != b.Overheads() {
		t.Fatal("capacity overhead must match LOT-ECC5")
	}
	if R(a) != R(b) {
		t.Fatalf("R must stay 0.25, got %v", R(a))
	}
}

// TestLOTECC5RSX8ChipFailure: losing the chip holding the first check
// symbols must not lose data.
func TestLOTECC5RSX8ChipFailure(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	s := NewLOTECC5RS()
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	cw.CorruptChip(l5rChips, 0x77)
	if det := s.Detect(cw); !det.ErrorDetected {
		t.Fatal("x8 failure must be detected")
	}
	got, _, err := s.Correct(cw, corr)
	if err != nil {
		t.Fatalf("x8 failure must be tolerated: %v", err)
	}
	if !bytes.Equal(got, d) {
		t.Fatal("data corrupted by x8 failure")
	}
}
