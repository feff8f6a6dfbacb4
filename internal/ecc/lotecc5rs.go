package ecc

import (
	"bytes"

	"eccparity/internal/gf"
)

// LOTECC5RS is the §VI-D modification of LOT-ECC5: the inter-device ECC is
// a Reed–Solomon code instead of a plain parity, restoring detection of
// address-decoder errors (which intra-chip checksums cannot see, because a
// chip answering with the WRONG row returns data and checksum that are
// mutually consistent).
//
// Each 64B line is four words of eight 16-bit data symbols interleaved
// evenly across the four x16 chips (two symbols per chip per word). Two
// 16-bit check symbols protect each word; the FIRST is stored in the x8
// ECC chip and verified on every read (inter-chip, so a swapped row breaks
// it), while the SECOND, together with the per-chip localizing checksums,
// forms the correction bits carried by the ECC parity. Detected errors are
// localized by the checksums (or by trial) and repaired by two-symbol
// erasure decoding using both check symbols. Rank shape, line size and
// R = 0.25 are identical to plain LOT-ECC5, as §VI-D requires.
//
// 16-bit symbols are realized as two parallel byte lanes of an RS(10,8)
// code over GF(2^8) — identical erasure and detection structure, stdlib
// arithmetic.
type LOTECC5RS struct {
	rs *gf.RS // (10,8) per byte lane
}

// NewLOTECC5RS constructs the scheme.
func NewLOTECC5RS() *LOTECC5RS { return &LOTECC5RS{rs: gf.NewRS(10, 8)} }

const (
	l5rChips = 4  // x16 data chips
	l5rShard = 16 // bytes per chip per line
	l5rWords = 4
	l5rLine  = 64
)

// Name implements Scheme.
func (s *LOTECC5RS) Name() string { return "LOT-ECC5 (RS inter-device, §VI-D)" }

// Geometry implements Scheme: identical to LOT-ECC5.
func (s *LOTECC5RS) Geometry() Geometry { return NewLOTECC5().Geometry() }

// Overheads implements Scheme: identical split to LOT-ECC5 (the check bits
// move around but their quantity does not change).
func (s *LOTECC5RS) Overheads() Overheads { return NewLOTECC5().Overheads() }

// CorrectionSize implements Scheme: 8B of second check symbols plus 8B of
// per-chip localizing checksums — R = 0.25 like plain LOT-ECC5.
func (s *LOTECC5RS) CorrectionSize() int { return 16 }

// symOff returns the byte offset of symbol sym of word w within its chip
// shard (two symbols per chip per word, two bytes per symbol).
func symOff(w, sym int) (chip, off int) {
	return sym % l5rChips, w*4 + (sym/l5rChips)*2
}

// wordLane gathers one byte lane (0 or 1) of word w from the data shards.
func wordLane(shards [][]byte, w, lane int) []byte {
	out := make([]byte, 8)
	for sym := 0; sym < 8; sym++ {
		chip, off := symOff(w, sym)
		out[sym] = shards[chip][off+lane]
	}
	return out
}

// checksPerWord computes both 16-bit check symbols of word w: four bytes
// (first-symbol hi/lo, second-symbol hi/lo).
func (s *LOTECC5RS) checksPerWord(shards [][]byte, w int) [4]byte {
	var out [4]byte
	for lane := 0; lane < 2; lane++ {
		c := s.rs.Checks(wordLane(shards, w, lane))
		out[lane] = c[0]
		out[2+lane] = c[1]
	}
	return out
}

// Encode implements Scheme: five shards — four x16 data shards plus the
// x8 shard holding the first check symbol of every word (8B).
func (s *LOTECC5RS) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, l5rChips+1)}
	for c := 0; c < l5rChips; c++ {
		cw.Shards[c] = append([]byte(nil), data[c*l5rShard:(c+1)*l5rShard]...)
	}
	first := make([]byte, 2*l5rWords)
	for w := 0; w < l5rWords; w++ {
		ck := s.checksPerWord(cw.Shards[:l5rChips], w)
		first[2*w] = ck[0]
		first[2*w+1] = ck[1]
	}
	cw.Shards[l5rChips] = first
	return cw, s.CorrectionBits(data)
}

// Data implements Scheme. Note the data layout is chip-major (chip c holds
// data[c*16:(c+1)*16]), with the word/symbol interleaving applied on top.
func (s *LOTECC5RS) Data(cw *Codeword) []byte {
	out := make([]byte, 0, l5rLine)
	for c := 0; c < l5rChips; c++ {
		out = append(out, cw.Shards[c]...)
	}
	return out
}

// CorrectionBits implements Scheme: the second check symbol of every word
// (8B) followed by a checksum16 per chip shard (8B).
func (s *LOTECC5RS) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	shards := make([][]byte, l5rChips)
	for c := 0; c < l5rChips; c++ {
		shards[c] = data[c*l5rShard : (c+1)*l5rShard]
	}
	out := make([]byte, 0, 16)
	for w := 0; w < l5rWords; w++ {
		ck := s.checksPerWord(shards, w)
		out = append(out, ck[2], ck[3])
	}
	for c := 0; c < l5rChips; c++ {
		sum := checksum16(shards[c])
		out = append(out, sum[0], sum[1])
	}
	return out
}

// Detect implements Scheme: recompute the first check symbol of every word
// and compare with the x8 shard. Inter-chip, so address-decoder errors
// (a chip returning another row) are caught — the whole point of §VI-D.
func (s *LOTECC5RS) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != l5rChips+1 {
		panic(ErrBadShards)
	}
	for w := 0; w < l5rWords; w++ {
		ck := s.checksPerWord(cw.Shards[:l5rChips], w)
		if ck[0] != cw.Shards[l5rChips][2*w] || ck[1] != cw.Shards[l5rChips][2*w+1] {
			return DetectResult{ErrorDetected: true}
		}
	}
	return DetectResult{}
}

// Correct implements Scheme: localize the failed chip via the checksums in
// the correction bits (or by trial), then erasure-decode its two symbol
// positions per word using both check symbols.
func (s *LOTECC5RS) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	if len(cw.Shards) != l5rChips+1 {
		return nil, nil, ErrBadShards
	}
	if len(corr) != s.CorrectionSize() {
		return nil, nil, ErrUncorrectable
	}
	second := corr[:8]
	sums := corr[8:]

	var suspects []int
	for c := 0; c < l5rChips; c++ {
		if !checksumMatches(cw.Shards[c], [2]byte{sums[2*c], sums[2*c+1]}) {
			suspects = append(suspects, c)
		}
	}
	switch len(suspects) {
	case 0:
		// Data shards match their checksums. If the stored first checks
		// disagree, the x8 chip is the faulty party; data is intact either
		// way, but verify against the second checks for address errors
		// that happen to collide with a checksum.
		if s.consistentWithSecond(cw.Shards[:l5rChips], second) {
			return s.Data(cw), &CorrectReport{}, nil
		}
		return s.trialErase(cw, second, sums)
	case 1:
		out, err := s.eraseChip(cw, second, suspects[0])
		if err != nil {
			return nil, nil, err
		}
		return out, &CorrectReport{CorrectedChips: suspects, UsedErasure: true}, nil
	default:
		return nil, nil, ErrUncorrectable
	}
}

// consistentWithSecond verifies the second check symbols against the data.
func (s *LOTECC5RS) consistentWithSecond(shards [][]byte, second []byte) bool {
	for w := 0; w < l5rWords; w++ {
		ck := s.checksPerWord(shards, w)
		if ck[2] != second[2*w] || ck[3] != second[2*w+1] {
			return false
		}
	}
	return true
}

// eraseChip erasure-decodes chip c's two symbols of every word using the
// stored first check (x8 shard) and the second check (correction bits).
func (s *LOTECC5RS) eraseChip(cw *Codeword, second []byte, c int) ([]byte, error) {
	repaired := make([][]byte, l5rChips)
	for i := 0; i < l5rChips; i++ {
		repaired[i] = append([]byte(nil), cw.Shards[i]...)
	}
	for w := 0; w < l5rWords; w++ {
		for lane := 0; lane < 2; lane++ {
			full := make([]byte, 10)
			copy(full, wordLane(repaired, w, lane))
			full[8] = cw.Shards[l5rChips][2*w+lane]
			full[9] = second[2*w+lane]
			// Chip c contributes symbols c and c+4 of the word.
			decoded, err := s.rs.DecodeErasures(full, []int{c, c + 4})
			if err != nil {
				return nil, ErrUncorrectable
			}
			for _, sym := range []int{c, c + 4} {
				chip, off := symOff(w, sym)
				repaired[chip][off+lane] = decoded[sym]
			}
		}
	}
	out := make([]byte, 0, l5rLine)
	for i := 0; i < l5rChips; i++ {
		out = append(out, repaired[i]...)
	}
	return out, nil
}

// trialErase handles errors the checksums missed (address errors whose
// wrong-row data carries a consistent checksum): erase each chip in turn
// and accept the unique repair consistent with both check symbols and the
// stored checksums.
func (s *LOTECC5RS) trialErase(cw *Codeword, second, sums []byte) ([]byte, *CorrectReport, error) {
	winner := -1
	var winnerData []byte
	for c := 0; c < l5rChips; c++ {
		out, err := s.eraseChip(cw, second, c)
		if err != nil {
			continue
		}
		shard := out[c*l5rShard : (c+1)*l5rShard]
		if bytes.Equal(shard, cw.Shards[c]) {
			continue
		}
		if checksumMatches(shard, [2]byte{sums[2*c], sums[2*c+1]}) {
			if winner >= 0 {
				return nil, nil, ErrUncorrectable
			}
			winner = c
			winnerData = out
		}
	}
	if winner < 0 {
		return nil, nil, ErrUncorrectable
	}
	return winnerData, &CorrectReport{CorrectedChips: []int{winner}, UsedErasure: true}, nil
}
