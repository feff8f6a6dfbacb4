// Package ecc implements the base memory error-correction schemes evaluated
// in the ECC Parity paper (Jian & Kumar, SC'14) as real codecs over
// per-chip data shards:
//
//   - Chipkill: the Reed–Solomon chipkill family, one type with its
//     geometry as data: NewChipkill36 (36-device commercial chipkill
//     correct, 32+4 x4 chips, 128B), NewChipkill18 (18-device, 16+2 x4,
//     64B) and NewDoubleChipkill (double chipkill correct, 32+8 x4, 128B)
//   - LOTECC5:    LOT-ECC with 5 chips/rank (4 x16 + 1 x8, 64B)
//   - LOTECC9:    LOT-ECC with 9 chips/rank (9 x8, 64B)
//   - LOTECC5RS:  LOT-ECC5 with RS second-tier symbols
//   - MultiECC:   Multi-ECC (9 x8, 64B, multi-line compacted correction)
//   - RAIM:       commercial DIMM-kill correct (45 x4 = 5 DIMMs, 128B)
//   - RAIMParity: the 18-device RAIM rank used under RAIM + ECC Parity
//   - OnDie, OnDieOnly: per-chip on-die SEC, under a rank-level scheme or
//     alone on a non-ECC rank
//
// Every scheme separates its redundancy into DETECTION bits, which are
// recomputed and checked on each read, and CORRECTION bits, which are only
// consumed when an error has been detected. The correction-bit function of
// every scheme is GF(2)-linear in the data line — the property the ECC
// Parity overlay (package core) depends on: the XOR of the correction bits
// of lines in different channels is itself a meaningful parity from which
// any one line's correction bits can be re-derived.
//
// Fidelity note: the 36-device chipkill is one RS(36,32) code per word,
// like the commercial four-check-symbol code. Which two check symbols are
// detection bits is this model's choice: detection recomputes the first
// two, and correction decodes with all four, the last two being the
// correction bits the overlay replaces.
package ecc

import (
	"errors"
	"fmt"
)

// Common errors returned by scheme codecs.
var (
	ErrUncorrectable = errors.New("ecc: detected error exceeds correction capability")
	ErrBadLineSize   = errors.New("ecc: data length does not match scheme line size")
	ErrBadShards     = errors.New("ecc: codeword shard shape does not match scheme geometry")
)

// ChipClass describes a DRAM device type within a rank.
type ChipClass struct {
	Width int // I/O width in bits: 4, 8 or 16
	Count int // number of such chips in the rank
	// HalfCapacity marks devices with half the capacity of the rank's
	// widest device (LOT-ECC5's x8 LED chip).
	HalfCapacity bool
}

// Geometry captures the physical shape of one rank of a scheme plus the
// system-level configuration rows of Table II.
type Geometry struct {
	RankConfig      string      // e.g. "36 x4" or "4 x16 + 1 x8"
	Chips           []ChipClass // device mix of one rank
	LineSize        int         // data bytes delivered per access
	RanksPerChannel int
	// Logical channel counts for the two evaluated system sizes:
	// "dual-equivalent" and "quad-equivalent" commercial ECC systems.
	ChannelsDualEq int
	ChannelsQuadEq int
	PinsDualEq     int
	PinsQuadEq     int
}

// ChipsPerRank returns the total device count of one rank.
func (g Geometry) ChipsPerRank() int {
	n := 0
	for _, c := range g.Chips {
		n += c.Count
	}
	return n
}

// DataPinWidth returns the summed I/O width of the rank in bits.
func (g Geometry) DataPinWidth() int {
	w := 0
	for _, c := range g.Chips {
		w += c.Width * c.Count
	}
	return w
}

// Overheads reports the storage cost of a scheme as fractions of data
// capacity, split the way Fig. 1 of the paper splits them.
type Overheads struct {
	Detection  float64 // capacity overhead fraction due to detection bits
	Correction float64 // capacity overhead fraction due to correction bits
}

// Total returns the combined capacity overhead fraction.
func (o Overheads) Total() float64 { return o.Detection + o.Correction }

// Codeword is an encoded line as stored in one rank: one shard per chip.
// Shards[i] is the byte content contributed by chip i for this line.
// Correction bits are NOT part of the codeword; they are returned separately
// by Encode and stored wherever the configuration dictates (dedicated chips,
// separate memory lines, or the cross-channel ECC parity of package core).
type Codeword struct {
	Shards [][]byte
}

// Clone deep-copies the codeword, for fault-injection experiments.
func (c *Codeword) Clone() *Codeword {
	out := &Codeword{Shards: make([][]byte, len(c.Shards))}
	for i, s := range c.Shards {
		out.Shards[i] = append([]byte(nil), s...)
	}
	return out
}

// CorruptChip overwrites every byte of one chip's shard, simulating a
// device-level fault on the access path.
func (c *Codeword) CorruptChip(chip int, pattern byte) {
	for i := range c.Shards[chip] {
		c.Shards[chip][i] = pattern
	}
}

// XorChip flips bits within one chip's shard.
func (c *Codeword) XorChip(chip int, mask byte) {
	for i := range c.Shards[chip] {
		c.Shards[chip][i] ^= mask
	}
}

// DetectResult reports the outcome of the on-the-fly detection check.
type DetectResult struct {
	ErrorDetected bool
	// SuspectChips lists chips whose intra-chip check failed, for schemes
	// with localizing detection (LOT-ECC, RAIM DIMM checksums). Empty for
	// pure inter-chip detection codes.
	SuspectChips []int
}

// CorrectReport describes what a successful correction did.
type CorrectReport struct {
	CorrectedChips []int // chips whose contribution was repaired, ascending
	UsedErasure    bool  // correction used known-location (erasure) decoding
}

// Scheme is one complete memory resilience scheme.
type Scheme interface {
	// Name returns the paper's name for the scheme.
	Name() string
	// Geometry returns the rank/system shape (Table II row).
	Geometry() Geometry
	// Overheads returns the capacity overhead split (Fig. 1 / Table III).
	Overheads() Overheads

	// Encode splits a LineSize-byte data line into per-chip shards with
	// embedded detection bits, and returns the correction bits separately.
	Encode(data []byte) (*Codeword, []byte)
	// Detect recomputes detection bits and reports mismatches. It never
	// consumes correction bits; this is the read-critical-path check.
	Detect(cw *Codeword) DetectResult
	// Correct recovers the original data line from a (possibly corrupted)
	// codeword using the supplied correction bits. The correction bits are
	// trusted (the caller reconstructs or fetches them per its layout).
	Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error)
	// CorrectionBits computes the correction bits of a clean data line.
	// This function is GF(2)-linear in data.
	CorrectionBits(data []byte) []byte
	// CorrectionSize returns len(CorrectionBits) in bytes. The paper's R
	// ratio is CorrectionSize()/LineSize().
	CorrectionSize() int
	// Data extracts the data portion of a codeword without any checking.
	Data(cw *Codeword) []byte
}

// R returns the paper's R ratio (correction bits per data bit) for a scheme.
func R(s Scheme) float64 {
	return float64(s.CorrectionSize()) / float64(s.Geometry().LineSize)
}

// checkLine validates the input line length for a scheme.
func checkLine(s Scheme, data []byte) {
	if len(data) != s.Geometry().LineSize {
		panic(fmt.Sprintf("%s: %v: got %d want %d", s.Name(), ErrBadLineSize, len(data), s.Geometry().LineSize))
	}
}

// xorInto accumulates src into dst (dst ^= src); lengths must match.
func xorInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic("ecc: xorInto length mismatch")
	}
	for i := range src {
		dst[i] ^= src[i]
	}
}

// XorBytes returns the bitwise XOR of two equal-length byte slices.
func XorBytes(a, b []byte) []byte {
	if len(a) != len(b) {
		panic("ecc: XorBytes length mismatch")
	}
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}
