package sim

import (
	"eccparity/internal/core"
	"eccparity/internal/dram"
	"eccparity/internal/ecc"
)

// This file implements the §VI-A analysis: maximum memory capacity vs
// energy for channels mixing ranks of wide DRAMs (energy-efficient, low
// capacity per rank: the LOT-ECC5 rank) and ranks of narrow DRAMs (high
// capacity per rank: an 18×x4 rank). Hot pages placed in the wide ranks
// capture most of the energy benefit; the narrow ranks provide capacity.
// Both rank types must carry the same high-strength ECC (a faulty wide
// DRAM can corrupt several narrow DRAMs sharing its I/O lanes), which is
// exactly the high-capacity-overhead ECC the Parity overlay makes cheap.

// MixedRankConfig describes one mixed channel.
type MixedRankConfig struct {
	WideRanks   int // 4×x16 + 1×x8 ranks (LOT-ECC5 shape)
	NarrowRanks int // 18×x4 ranks
	// HotFraction is the fraction of accesses served by the wide ranks
	// (hot-page placement quality).
	HotFraction float64
	// Channels sharing ECC parities, for the capacity-overhead column.
	Channels int
}

// MixedRankResult is the outcome of the analysis.
type MixedRankResult struct {
	// Per-access dynamic energy, pJ.
	WideAccess   float64
	NarrowAccess float64
	Blended      float64
	// BlendedVsAllNarrow is the dynamic energy ratio against an all-narrow
	// channel (the capacity-maximal configuration).
	BlendedVsAllNarrow float64
	// RelativeCapacity is the channel's data capacity relative to an
	// all-narrow channel with the same number of rank slots.
	RelativeCapacity float64
	// Capacity overheads of the required high-strength ECC, with and
	// without the Parity overlay (Table III arithmetic, R = 0.25).
	OverheadWithParity    float64
	OverheadWithoutParity float64
}

// rankAccessEnergy sums activate+read energy across a rank's devices.
func rankAccessEnergy(chips []dram.Chip, t dram.Timing) float64 {
	var e float64
	for _, c := range chips {
		e += c.ActivateEnergy(t) + c.ReadBurstEnergy(t)
	}
	return e
}

// MixedRankAnalysis evaluates one configuration.
func MixedRankAnalysis(cfg MixedRankConfig) MixedRankResult {
	t := dram.DDR3Timing1GHz()
	wide := []dram.Chip{
		dram.Chip2GbDDR3(dram.X16), dram.Chip2GbDDR3(dram.X16),
		dram.Chip2GbDDR3(dram.X16), dram.Chip2GbDDR3(dram.X16),
		dram.Chip2GbDDR3(dram.X8),
	}
	narrow := make([]dram.Chip, 18)
	for i := range narrow {
		narrow[i] = dram.Chip2GbDDR3(dram.X4)
	}
	eWide := rankAccessEnergy(wide, t)
	eNarrow := rankAccessEnergy(narrow, t)

	h := cfg.HotFraction
	if cfg.WideRanks == 0 {
		h = 0
	}
	if cfg.NarrowRanks == 0 {
		h = 1
	}
	blended := h*eWide + (1-h)*eNarrow

	// Data capacity per rank: wide = 4×2Gb = 1GB; narrow = 16×2Gb = 4GB.
	slots := cfg.WideRanks + cfg.NarrowRanks
	capMixed := float64(cfg.WideRanks)*1 + float64(cfg.NarrowRanks)*4
	capAllNarrow := float64(slots) * 4

	lot5 := ecc.ByName("lotecc5")
	return MixedRankResult{
		WideAccess:            eWide,
		NarrowAccess:          eNarrow,
		Blended:               blended,
		BlendedVsAllNarrow:    blended / eNarrow,
		RelativeCapacity:      capMixed / capAllNarrow,
		OverheadWithParity:    core.StaticOverhead(ecc.R(lot5), cfg.Channels),
		OverheadWithoutParity: lot5.Overheads().Total(),
	}
}

// MixedRankSweep evaluates the §VI-A trade-off across hot-fraction values
// for a half-wide/half-narrow channel in an 8-channel system.
func MixedRankSweep() []MixedRankResult {
	out := []MixedRankResult{}
	for _, h := range []float64{0, 0.5, 0.8, 0.9, 0.95, 1.0} {
		out = append(out, MixedRankAnalysis(MixedRankConfig{
			WideRanks: 2, NarrowRanks: 2, HotFraction: h, Channels: 8,
		}))
	}
	return out
}
