package core

import "fmt"

// This file implements the ECC parity group construction (§III-A, Fig. 4),
// the synthetic address spaces for parity/ECC/XOR lines consumed by the
// traffic model, and the capacity-overhead arithmetic of Table III.

// Grouping: within one bank, the data lines of every channel are cut into
// runs of N−1 lines ("macro-stripes"). Macro-stripe m contributes one line
// per channel to N different parity groups; group (m, k) takes line
// m·(N−1) + j from each channel c ≠ k, with j = (k−c−1) mod N, and stores
// the XOR of those lines' ECC correction bits in channel k's reserved
// parity rows. Every data line belongs to exactly one group, every group
// spans N−1 distinct channels, and each channel stores 1/(N−1)·R of its
// data capacity as parity — matching the paper's overhead formula.

// GroupKey identifies one ECC parity group.
type GroupKey struct {
	Bank int
	M    int // macro-stripe index
	K    int // parity channel (stores the parity, contributes no data line)
}

// GroupOf returns the parity group of data line index `line` (a flattened
// row·slots+slot index within one bank) in channel c of an n-channel
// system.
func GroupOf(c, line, n, bank int) GroupKey {
	if n < 2 {
		panic("core: parity groups need at least 2 channels")
	}
	j := line % (n - 1)
	k := (c + 1 + j) % n
	return GroupKey{Bank: bank, M: line / (n - 1), K: k}
}

// MemberLine returns the data line index contributed to group g by channel
// c, and whether c contributes at all (the parity channel does not).
func (g GroupKey) MemberLine(c, n int) (int, bool) {
	if c == g.K {
		return 0, false
	}
	j := ((g.K-c-1)%n + n) % n
	return g.M*(n-1) + j, true
}

// Peers lists the channels contributing data lines to the group.
func (g GroupKey) Peers(n int) []int {
	out := make([]int, 0, n-1)
	for c := 0; c < n; c++ {
		if c != g.K {
			out = append(out, c)
		}
	}
	return out
}

// Synthetic address spaces for the traffic model. Data addresses live below
// 1<<40; ECC-related lines get disjoint high ranges so they never collide
// with data in the LLC index.
const (
	eccSpace = uint64(1) << 44 // materialized correction-bit lines
	xorSpace = uint64(1) << 45 // XOR cachelines / parity lines
	gecSpace = uint64(1) << 43 // baseline LOT-ECC / Multi-ECC ECC lines
)

// PageBytes is the physical page (and DRAM row) size.
const PageBytes = 4096

// XORCachelineAddr maps a data line address to the address of the XOR
// cacheline accumulating its parity updates. One XOR cacheline covers the
// same group of four logically adjacent data lines in N logically adjacent
// physical pages (the page group is page / channels; pages interleave
// across channels, so the N pages hit N distinct channels). §IV-C groups
// N−1 pages, whose parity lives in the Nth channel: that difference is a
// pinned divergence (EXPERIMENTS.md, known divergence 4).
func XORCachelineAddr(dataAddr uint64, channels int) uint64 {
	page := dataAddr / PageBytes
	pageGroup := page / uint64(channels)
	region := (dataAddr % PageBytes) / 256 // four adjacent 64B lines
	return xorSpace + (pageGroup*(PageBytes/256)+region)*64
}

// ECCLineAddr maps a data line address to its materialized correction-bit
// line, for banks recorded faulty. The correction bits of a line occupy
// 2·R·lineBytes (the doubling of §III-B), so one 64B ECC line covers
// 64/(2·R·lineBytes) ≥ 1 data lines.
func ECCLineAddr(dataAddr uint64, r float64, lineBytes int) uint64 {
	cover := int(64.0 / (2 * r * float64(lineBytes)) * float64(lineBytes))
	if cover < lineBytes {
		cover = lineBytes
	}
	return eccSpace + dataAddr/uint64(cover)*64
}

// GECLineAddr maps a data line address to the baseline tiered-ECC line
// covering it (LOT-ECC's GEC line or Multi-ECC's compacted T2EC line),
// given how many data lines share one ECC line.
func GECLineAddr(dataAddr uint64, linesCovered, lineBytes int) uint64 {
	return gecSpace + dataAddr/uint64(linesCovered*lineBytes)*64
}

// ParityLinePlacement returns the physical location of the parity line
// backing one XOR cacheline (addressed by XORCachelineAddr's synthetic
// address), for the traffic model: the parity lives in the channel the
// page group rotates onto (Fig. 4's distribution), in the reserved high
// rows, spread across ranks and banks by the group index.
func ParityLinePlacement(xorAddr uint64, channels, ranks, banks, rowsPerBank int) (channel, rank, bank, row int) {
	idx := (xorAddr - xorSpace) / 64
	pageGroup := idx / (PageBytes / 256)
	// Rotate the parity channel by group so no channel specializes.
	channel = int(pageGroup % uint64(channels))
	rank = int((idx / uint64(banks)) % uint64(ranks))
	bank = int(idx % uint64(banks))
	// Reserved region: the top 1/16th of rows (ample for R ≤ 0.5, N ≥ 2).
	reserved := rowsPerBank / 16
	if reserved < 1 {
		reserved = 1
	}
	row = rowsPerBank - 1 - int(idx/uint64(ranks*banks))%reserved
	return channel, rank, bank, row
}

// StaticOverhead returns the paper's Table III capacity overhead for an
// ECC-Parity system: 12.5% detection (dedicated ECC chips) plus the parity
// lines, (1+12.5%)·R/(N−1), where R is correction bits per data bit.
func StaticOverhead(r float64, channels int) float64 {
	if channels < 2 {
		panic(fmt.Sprintf("core: ECC Parity needs ≥2 channels, got %d", channels))
	}
	return 0.125 + 1.125*r/float64(channels-1)
}

// EOLOverhead returns the end-of-life expected overhead: the static cost
// plus materialized correction bits (2·R with their own 12.5% detection
// overhead) for the marked fraction of memory.
func EOLOverhead(r float64, channels int, markedFraction float64) float64 {
	return StaticOverhead(r, channels) + markedFraction*2*r*1.125
}

// ParityRowsPerBank returns how many rows must be reserved per bank for
// parity lines, given data rows per bank: each parity row covers (N−1)/R
// data rows (§III-A).
func ParityRowsPerBank(dataRows int, r float64, channels int) int {
	cover := float64(channels-1) / r
	rows := int(float64(dataRows)/cover) + 1
	return rows
}
