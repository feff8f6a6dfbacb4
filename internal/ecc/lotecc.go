package ecc

import (
	"bytes"
	"fmt"
)

// LOTECC models LOT-ECC (Udipi et al., ISCA'12), the localized-and-tiered
// chipkill scheme, in its two rank shapes evaluated by the paper:
//
//   - LOT-ECC5: 4 x16 data chips + 1 half-capacity x8 chip, 64B lines.
//   - LOT-ECC9: 8 x8 data chips + 1 x8 chip, 64B lines.
//
// Tier 1 (LED, local error detection): a per-chip checksum of each data
// shard, stored in the extra chip and verified on every read. LED both
// detects errors and LOCALIZES them to a device, enabling erasure
// correction. Tier 2 (GEC, global error correction): the bitwise XOR of the
// data shards, stored in separate data-memory lines (one GEC line serves
// several data lines). GEC is the scheme's correction bits: GF(2)-linear,
// consumed only after LED flags a device.
type LOTECC struct {
	name       string
	dataChips  int
	shardSize  int // bytes per data chip per line
	ledPerChip int // LED checksum bytes per data chip (1 or 2)
	geom       Geometry
	over       Overheads
}

// NewLOTECC5 constructs the five-chip-per-rank LOT-ECC implementation.
func NewLOTECC5() *LOTECC {
	return &LOTECC{
		name:       "LOT-ECC5",
		dataChips:  4,
		shardSize:  16,
		ledPerChip: 2,
		geom: Geometry{
			RankConfig: "4 x16 + 1 x8",
			Chips: []ChipClass{
				{Width: 16, Count: 4},
				{Width: 8, Count: 1, HalfCapacity: true},
			},
			LineSize:        64,
			RanksPerChannel: 4,
			ChannelsDualEq:  4,
			ChannelsQuadEq:  8,
			PinsDualEq:      288,
			PinsQuadEq:      576,
		},
		// LED chip is 1/8 of data capacity; each 72B GEC line (64B of GEC
		// + 8B of its own LED) covers four 64B data lines: 72/256.
		over: Overheads{Detection: 0.125, Correction: 72.0 / 256.0},
	}
}

// NewLOTECC9 constructs the nine-chip-per-rank LOT-ECC implementation.
func NewLOTECC9() *LOTECC {
	return &LOTECC{
		name:       "LOT-ECC9",
		dataChips:  8,
		shardSize:  8,
		ledPerChip: 1,
		geom: Geometry{
			RankConfig:      "9 x8",
			Chips:           []ChipClass{{Width: 8, Count: 9}},
			LineSize:        64,
			RanksPerChannel: 2,
			ChannelsDualEq:  4,
			ChannelsQuadEq:  8,
			PinsDualEq:      288,
			PinsQuadEq:      576,
		},
		// Each 72B GEC line covers eight 64B data lines: 72/512.
		over: Overheads{Detection: 0.125, Correction: 72.0 / 512.0},
	}
}

// Name implements Scheme.
func (s *LOTECC) Name() string { return s.name }

// Geometry implements Scheme.
func (s *LOTECC) Geometry() Geometry { return s.geom }

// Overheads implements Scheme.
func (s *LOTECC) Overheads() Overheads { return s.over }

// CorrectionSize implements Scheme: the GEC shard-XOR, one shard wide.
func (s *LOTECC) CorrectionSize() int { return s.shardSize }

// ledShard computes the LED chip contents for the given data shards.
func (s *LOTECC) ledShard(shards [][]byte) []byte {
	led := make([]byte, s.dataChips*s.ledPerChip)
	for c := 0; c < s.dataChips; c++ {
		if s.ledPerChip == 2 {
			sum := checksum16(shards[c])
			led[2*c] = sum[0]
			led[2*c+1] = sum[1]
		} else {
			led[c] = checksum8(shards[c])
		}
	}
	return led
}

// ledMatches reports whether data shard c matches its LED entry.
func (s *LOTECC) ledMatches(led []byte, shard []byte, c int) bool {
	if s.ledPerChip == 2 {
		return checksumMatches(shard, [2]byte{led[2*c], led[2*c+1]})
	}
	return checksum8(shard) == led[c]
}

// Encode implements Scheme. The codeword holds dataChips+1 shards: the data
// shards followed by the LED shard. The returned correction bits are the GEC.
func (s *LOTECC) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, s.dataChips+1)}
	for c := 0; c < s.dataChips; c++ {
		cw.Shards[c] = append([]byte(nil), data[c*s.shardSize:(c+1)*s.shardSize]...)
	}
	cw.Shards[s.dataChips] = s.ledShard(cw.Shards[:s.dataChips])
	return cw, s.CorrectionBits(data)
}

// Data implements Scheme.
func (s *LOTECC) Data(cw *Codeword) []byte {
	out := make([]byte, 0, s.geom.LineSize)
	for c := 0; c < s.dataChips; c++ {
		out = append(out, cw.Shards[c]...)
	}
	return out
}

// CorrectionBits implements Scheme: bitwise XOR of the data shards.
func (s *LOTECC) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	gec := make([]byte, s.shardSize)
	for c := 0; c < s.dataChips; c++ {
		xorInto(gec, data[c*s.shardSize:(c+1)*s.shardSize])
	}
	return gec
}

// Detect implements Scheme: verifies every shard's LED checksum. Mismatches
// localize the error to specific devices.
func (s *LOTECC) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != s.dataChips+1 {
		panic(ErrBadShards)
	}
	led := cw.Shards[s.dataChips]
	var res DetectResult
	for c := 0; c < s.dataChips; c++ {
		if !s.ledMatches(led, cw.Shards[c], c) {
			res.ErrorDetected = true
			res.SuspectChips = append(res.SuspectChips, c)
		}
	}
	return res
}

// gecOf computes the XOR of the codeword's data shards.
func (s *LOTECC) gecOf(cw *Codeword) []byte {
	gec := make([]byte, s.shardSize)
	for c := 0; c < s.dataChips; c++ {
		xorInto(gec, cw.Shards[c])
	}
	return gec
}

// Correct implements Scheme: erasure-corrects the shard(s) localized by LED
// using the GEC correction bits.
//
// Cases handled, mirroring LOT-ECC's tiered protocol:
//   - one suspect shard: erasure-correct it from GEC ⊕ remaining shards and
//     re-verify its checksum;
//   - several suspects but data consistent with GEC: the LED device itself
//     failed, data is intact;
//   - no suspects but the caller still requested correction (e.g. scrubber
//     found a GEC mismatch): locate the shard whose replacement restores
//     checksum consistency.
func (s *LOTECC) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	if len(cw.Shards) != s.dataChips+1 {
		return nil, nil, ErrBadShards
	}
	if len(corr) != s.shardSize {
		return nil, nil, fmt.Errorf("%s: correction bits size %d, want %d: %w",
			s.name, len(corr), s.shardSize, ErrUncorrectable)
	}
	det := s.Detect(cw)
	led := cw.Shards[s.dataChips]

	switch len(det.SuspectChips) {
	case 0:
		// Data checksums pass. If GEC agrees too, nothing to do.
		if bytes.Equal(s.gecOf(cw), corr) {
			return s.Data(cw), &CorrectReport{}, nil
		}
		// GEC disagrees while every checksum passes: a shard was corrupted
		// into a checksum collision, or the GEC itself is stale/corrupt.
		// Try each single-shard repair and accept the unique one whose
		// checksum still passes (the repaired shard must differ).
		return s.trialCorrect(cw, corr, led)
	case 1:
		c := det.SuspectChips[0]
		fixed := s.eraseShard(cw, corr, c)
		if s.ledMatches(led, fixed, c) {
			out := s.Data(cw)
			copy(out[c*s.shardSize:], fixed)
			return out, &CorrectReport{CorrectedChips: []int{c}, UsedErasure: true}, nil
		}
		// Repair failed its checksum: perhaps the LED entry is the corrupt
		// party. Data intact iff GEC agrees with the raw shards.
		if bytes.Equal(s.gecOf(cw), corr) {
			return s.Data(cw), &CorrectReport{CorrectedChips: []int{s.dataChips}}, nil
		}
		return nil, nil, ErrUncorrectable
	default:
		// Multiple suspects: consistent with a dead LED device (all its
		// checksums garbage) while data is fine. Verify against GEC.
		if bytes.Equal(s.gecOf(cw), corr) {
			return s.Data(cw), &CorrectReport{CorrectedChips: []int{s.dataChips}}, nil
		}
		return nil, nil, ErrUncorrectable
	}
}

// eraseShard computes what shard c must be for the codeword to satisfy the
// GEC: corr ⊕ XOR of every other data shard.
func (s *LOTECC) eraseShard(cw *Codeword, corr []byte, c int) []byte {
	fixed := append([]byte(nil), corr...)
	for i := 0; i < s.dataChips; i++ {
		if i != c {
			xorInto(fixed, cw.Shards[i])
		}
	}
	return fixed
}

// trialCorrect attempts every single-shard erasure and returns the unique
// consistent repair.
func (s *LOTECC) trialCorrect(cw *Codeword, corr []byte, led []byte) ([]byte, *CorrectReport, error) {
	winner := -1
	var winnerShard []byte
	for c := 0; c < s.dataChips; c++ {
		fixed := s.eraseShard(cw, corr, c)
		if bytes.Equal(fixed, cw.Shards[c]) {
			continue // no change: not a repair
		}
		if s.ledMatches(led, fixed, c) {
			if winner >= 0 {
				return nil, nil, ErrUncorrectable // ambiguous
			}
			winner = c
			winnerShard = fixed
		}
	}
	if winner < 0 {
		return nil, nil, ErrUncorrectable
	}
	out := s.Data(cw)
	copy(out[winner*s.shardSize:], winnerShard)
	return out, &CorrectReport{CorrectedChips: []int{winner}, UsedErasure: true}, nil
}
