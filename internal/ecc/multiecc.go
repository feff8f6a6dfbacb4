package ecc

import (
	"bytes"

	"eccparity/internal/gf"
)

// MultiECC models Multi-ECC (Jian et al., SC'13): 64B lines across 9 x8
// chips. Tier 1 is a per-line checksum in the ninth chip, verified on every
// read (detecting but not localizing). Tier 2 is a pair of RS(10,8) check
// symbols per byte column (16B per line), stored compacted — the XOR of the
// check bits of many lines shares one ECC line — which is the very technique
// the ECC Parity paper borrows for its XOR cachelines.
//
// Correction localizes the failed device by trial: erase each candidate
// chip in turn, erasure-decode, and accept the unique repair that satisfies
// the line checksum.
type MultiECC struct {
	code *gf.RS // (10,8), one codeword per byte column
}

// NewMultiECC constructs the scheme.
func NewMultiECC() *MultiECC { return &MultiECC{code: gf.NewRS(10, 8)} }

const (
	meDataChips = 8
	meShard     = 8  // bytes per chip per line
	meLine      = 64 // bytes
	// meLinesPerECCLine is how many data lines share one compacted ECC
	// line; with 16B of T2 checks per line and XOR compaction of groups of
	// 64 lines, correction storage is 16·1.125/(64·64) ≈ 0.44% (12.9% total
	// with the 12.5% checksum chip, Table III). It sets the capacity
	// overhead only: the timing engine's ECC-line coverage is the scheme
	// table's Entry.LinesPerECCLine, which is 16.
	meLinesPerECCLine = 64
)

// Name implements Scheme.
func (s *MultiECC) Name() string { return "Multi-ECC" }

// Geometry implements Scheme (Table II row 5).
func (s *MultiECC) Geometry() Geometry {
	return Geometry{
		RankConfig:      "9 x8",
		Chips:           []ChipClass{{Width: 8, Count: 9}},
		LineSize:        meLine,
		RanksPerChannel: 2,
		ChannelsDualEq:  4,
		ChannelsQuadEq:  8,
		PinsDualEq:      288,
		PinsQuadEq:      576,
	}
}

// Overheads implements Scheme.
func (s *MultiECC) Overheads() Overheads {
	return Overheads{
		Detection:  0.125,
		Correction: 16.0 * 1.125 / (meLine * meLinesPerECCLine),
	}
}

// CorrectionSize implements Scheme: 2 RS check bytes per byte column.
func (s *MultiECC) CorrectionSize() int { return 2 * meShard }

// lineChecksum computes the 8B tier-1 checksum: checksum16 of each 16B
// quarter of the line.
func lineChecksum(data []byte) []byte {
	out := make([]byte, 0, 8)
	for q := 0; q < 4; q++ {
		sum := checksum16(data[q*16 : (q+1)*16])
		out = append(out, sum[0], sum[1])
	}
	return out
}

// Encode implements Scheme: 8 data shards + 1 checksum shard.
func (s *MultiECC) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, meDataChips+1)}
	for c := 0; c < meDataChips; c++ {
		cw.Shards[c] = append([]byte(nil), data[c*meShard:(c+1)*meShard]...)
	}
	cw.Shards[meDataChips] = lineChecksum(data)
	return cw, s.CorrectionBits(data)
}

// Data implements Scheme.
func (s *MultiECC) Data(cw *Codeword) []byte {
	out := make([]byte, 0, meLine)
	for c := 0; c < meDataChips; c++ {
		out = append(out, cw.Shards[c]...)
	}
	return out
}

// Detect implements Scheme: recomputes the line checksum. Multi-ECC's
// checksum does not localize, so SuspectChips stays empty.
func (s *MultiECC) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != meDataChips+1 {
		panic(ErrBadShards)
	}
	if !bytes.Equal(lineChecksum(s.Data(cw)), cw.Shards[meDataChips]) {
		return DetectResult{ErrorDetected: true}
	}
	return DetectResult{}
}

// CorrectionBits implements Scheme: RS(10,8) checks of every byte column
// (column j holds byte j of each chip shard). Linear in the data.
func (s *MultiECC) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	out := make([]byte, 2*meShard)
	col := make([]byte, meDataChips)
	for j := 0; j < meShard; j++ {
		for c := 0; c < meDataChips; c++ {
			col[c] = data[c*meShard+j]
		}
		copy(out[2*j:], s.code.Checks(col))
	}
	return out
}

// column fills cw with RS codeword j of a line: byte j of every data chip
// followed by that column's two check bytes.
func (s *MultiECC) column(cw, line, corr []byte, j int) {
	for c := 0; c < meDataChips; c++ {
		cw[c] = line[c*meShard+j]
	}
	cw[meDataChips] = corr[2*j]
	cw[meDataChips+1] = corr[2*j+1]
}

// consistent reports whether every column of the line agrees with the
// supplied check bytes.
func (s *MultiECC) consistent(line, corr []byte) bool {
	cw := make([]byte, s.code.N())
	for j := 0; j < meShard; j++ {
		s.column(cw, line, corr, j)
		if s.code.HasError(cw) {
			return false
		}
	}
	return true
}

// eraseChip erasure-decodes every column with chip c erased and returns the
// repaired line.
func (s *MultiECC) eraseChip(line, corr []byte, c int) ([]byte, error) {
	out := append([]byte(nil), line...)
	cw := make([]byte, s.code.N())
	for j := 0; j < meShard; j++ {
		s.column(cw, line, corr, j)
		decoded, err := s.code.DecodeErasures(cw, []int{c})
		if err != nil {
			return nil, err
		}
		out[c*meShard+j] = decoded[c]
	}
	return out, nil
}

// Correct implements Scheme. Multi-ECC has no localizing detection, so it
// erases each candidate device in turn and keeps the unique erasure repair
// whose line checksum verifies. A failed checksum chip (data intact,
// checksum garbage) is recognized by the T2 code validating the raw data.
func (s *MultiECC) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	if len(cw.Shards) != meDataChips+1 {
		return nil, nil, ErrBadShards
	}
	if len(corr) != s.CorrectionSize() {
		return nil, nil, ErrUncorrectable
	}
	raw := s.Data(cw)
	stored := cw.Shards[meDataChips]

	if s.consistent(raw, corr) {
		// Fast path: checksum consistent and T2 syndromes clean.
		if bytes.Equal(lineChecksum(raw), stored) {
			return raw, &CorrectReport{}, nil
		}
		// The T2 code validates the raw data, so the detection checksum
		// itself is the corrupted party.
		return raw, &CorrectReport{CorrectedChips: []int{meDataChips}}, nil
	}
	// Trial-erase each data chip.
	winner := -1
	var winnerLine []byte
	for c := 0; c < meDataChips; c++ {
		cand, err := s.eraseChip(raw, corr, c)
		if err != nil {
			continue
		}
		if bytes.Equal(cand, raw) {
			continue
		}
		if bytes.Equal(lineChecksum(cand), stored) {
			if winner >= 0 {
				return nil, nil, ErrUncorrectable
			}
			winner = c
			winnerLine = cand
		}
	}
	if winner < 0 {
		return nil, nil, ErrUncorrectable
	}
	return winnerLine, &CorrectReport{CorrectedChips: []int{winner}, UsedErasure: true}, nil
}
