package ecc

import (
	"bytes"

	"eccparity/internal/gf"
)

// RAIM models the IBM zEnterprise redundant array of independent memory:
// DIMM-kill correct. Each 128B line is striped across five DIMMs of nine x4
// chips each (45 chips per rank). Four DIMMs carry 32B of data plus a 4B
// channel checksum; the fifth DIMM stores the bitwise XOR of the other
// four. A complete DIMM failure is localized by its checksum and repaired
// by erasure from the parity DIMM.
//
// The codec's shards are per-DIMM (the scheme's fault granularity); the
// Geometry still reports the 45 physical chips for the energy model.
type RAIM struct{}

// NewRAIM constructs the scheme.
func NewRAIM() *RAIM { return &RAIM{} }

const (
	raimDIMMs     = 4   // data DIMMs
	raimDataShard = 32  // data bytes per DIMM per line
	raimShard     = 36  // data + checksum bytes per DIMM per line
	raimLine      = 128 // bytes
)

// Name implements Scheme.
func (s *RAIM) Name() string { return "RAIM" }

// Geometry implements Scheme (Table II row 7).
func (s *RAIM) Geometry() Geometry {
	return Geometry{
		RankConfig:      "45 x4",
		Chips:           []ChipClass{{Width: 4, Count: 45}},
		LineSize:        raimLine,
		RanksPerChannel: 1,
		ChannelsDualEq:  2,
		ChannelsQuadEq:  4,
		PinsDualEq:      360,
		PinsQuadEq:      720,
	}
}

// Overheads implements Scheme: 13 of 45 chips are redundancy — 4 checksum
// chips (detection) and the 9-chip parity DIMM (correction).
func (s *RAIM) Overheads() Overheads {
	return Overheads{Detection: 4.0 / 32.0, Correction: 9.0 / 32.0}
}

// CorrectionSize implements Scheme: the parity-DIMM data content. (The
// physical parity DIMM also mirrors checksum chips, but those are
// re-derivable from data, so only the 32B data XOR is the scheme's
// correction-bit payload — GF(2)-linear by construction.)
func (s *RAIM) CorrectionSize() int { return raimDataShard }

// dimmShard builds one data DIMM's 36B shard: 32B data + two checksum16
// checksums over its halves.
func dimmShard(data []byte) []byte {
	shard := make([]byte, 0, raimShard)
	shard = append(shard, data...)
	a := checksum16(data[:16])
	b := checksum16(data[16:])
	return append(shard, a[0], a[1], b[0], b[1])
}

// dimmShardOK verifies a shard's embedded checksums.
func dimmShardOK(shard []byte) bool {
	a := checksum16(shard[:16])
	b := checksum16(shard[16:32])
	return shard[32] == a[0] && shard[33] == a[1] && shard[34] == b[0] && shard[35] == b[1]
}

// Encode implements Scheme: four data-DIMM shards; correction bits are the
// parity-DIMM shard (XOR of the four).
func (s *RAIM) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, raimDIMMs)}
	for d := 0; d < raimDIMMs; d++ {
		cw.Shards[d] = dimmShard(data[d*raimDataShard : (d+1)*raimDataShard])
	}
	return cw, s.CorrectionBits(data)
}

// Data implements Scheme.
func (s *RAIM) Data(cw *Codeword) []byte {
	out := make([]byte, 0, raimLine)
	for d := 0; d < raimDIMMs; d++ {
		out = append(out, cw.Shards[d][:raimDataShard]...)
	}
	return out
}

// CorrectionBits implements Scheme: XOR of the four DIMMs' data payloads.
func (s *RAIM) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	parity := make([]byte, raimDataShard)
	for d := 0; d < raimDIMMs; d++ {
		xorInto(parity, data[d*raimDataShard:(d+1)*raimDataShard])
	}
	return parity
}

// Detect implements Scheme: per-DIMM checksum verification; a mismatching
// DIMM index is reported as a suspect.
func (s *RAIM) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != raimDIMMs {
		panic(ErrBadShards)
	}
	var res DetectResult
	for d := 0; d < raimDIMMs; d++ {
		if !dimmShardOK(cw.Shards[d]) {
			res.ErrorDetected = true
			res.SuspectChips = append(res.SuspectChips, d)
		}
	}
	return res
}

// Correct implements Scheme: erasure-repairs the suspect DIMM from the
// parity shard; with no suspect but a parity mismatch, trial-erases each
// DIMM (covers checksum-colliding corruption and parity-DIMM faults).
func (s *RAIM) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	if len(cw.Shards) != raimDIMMs {
		return nil, nil, ErrBadShards
	}
	if len(corr) != raimDataShard {
		return nil, nil, ErrUncorrectable
	}
	det := s.Detect(cw)
	switch len(det.SuspectChips) {
	case 0:
		if bytes.Equal(s.xorShards(cw), corr) {
			return s.Data(cw), &CorrectReport{}, nil
		}
		// Parity inconsistent but all checksums pass: either the stored
		// parity itself is the faulty party (data fine) or a shard
		// collided its checksum. Trial-erase to disambiguate; if no trial
		// yields a different consistent line, trust the checksums.
		for d := 0; d < raimDIMMs; d++ {
			fixedData := s.eraseDIMM(cw, corr, d)
			fixed := dimmShard(fixedData)
			if !bytes.Equal(fixed, cw.Shards[d]) && dimmShardOK(fixed) {
				out := s.Data(cw)
				copy(out[d*raimDataShard:], fixedData)
				return out, &CorrectReport{CorrectedChips: []int{d}, UsedErasure: true}, nil
			}
		}
		return s.Data(cw), &CorrectReport{}, nil
	case 1:
		d := det.SuspectChips[0]
		fixedData := s.eraseDIMM(cw, corr, d)
		out := s.Data(cw)
		copy(out[d*raimDataShard:], fixedData)
		return out, &CorrectReport{CorrectedChips: []int{d}, UsedErasure: true}, nil
	default:
		return nil, nil, ErrUncorrectable
	}
}

// xorShards XORs the data payloads of the stored shards.
func (s *RAIM) xorShards(cw *Codeword) []byte {
	parity := make([]byte, raimDataShard)
	for d := 0; d < raimDIMMs; d++ {
		xorInto(parity, cw.Shards[d][:raimDataShard])
	}
	return parity
}

// eraseDIMM reconstructs DIMM d's data payload from the parity and the
// other shards' payloads.
func (s *RAIM) eraseDIMM(cw *Codeword, corr []byte, d int) []byte {
	fixed := append([]byte(nil), corr...)
	for i := 0; i < raimDIMMs; i++ {
		if i != d {
			xorInto(fixed, cw.Shards[i][:raimDataShard])
		}
	}
	return fixed
}

// RAIMParity is the 18-device rank used when ECC Parity is applied to
// DIMM-kill correct (Table II row 8): 64B lines across 16 x4 data chips
// organized as four DIMM groups of four chips, plus two x4 detection chips
// holding per-group checksums. The correction bits (stored as cross-channel
// ECC parity by package core) are a P/Q pair over the DIMM groups — P is
// the plain XOR, Q the GF(2^8) α-weighted XOR — giving DIMM-kill erasure
// correction with self-contained localization, 32B per 64B line (the
// paper's R = 0.5 for RAIM, Table III).
type RAIMParity struct{}

// NewRAIMParity constructs the scheme.
func NewRAIMParity() *RAIMParity { return &RAIMParity{} }

const (
	rpGroups     = 4  // DIMM groups
	rpShard      = 16 // data bytes per group per line
	rpLine       = 64
	rpDetBytes   = 2 // checksum bytes per group, stored in detection chips
	rpGroupChips = 4 // x4 chips per group
)

// Name implements Scheme.
func (s *RAIMParity) Name() string { return "RAIM-18 (ECC Parity base)" }

// Geometry implements Scheme (Table II row 8).
func (s *RAIMParity) Geometry() Geometry {
	return Geometry{
		RankConfig:      "18 x4",
		Chips:           []ChipClass{{Width: 4, Count: 18}},
		LineSize:        rpLine,
		RanksPerChannel: 1,
		ChannelsDualEq:  5,
		ChannelsQuadEq:  10,
		PinsDualEq:      360,
		PinsQuadEq:      720,
	}
}

// Overheads implements Scheme: detection is the two extra chips (12.5%);
// the correction-bit cost depends on the overlay's channel count and is
// accounted by package core, so only R is meaningful here.
func (s *RAIMParity) Overheads() Overheads {
	return Overheads{Detection: 2.0 / 16.0, Correction: 0.5}
}

// CorrectionSize implements Scheme: P and Q, one group shard each.
func (s *RAIMParity) CorrectionSize() int { return 2 * rpShard }

// Encode implements Scheme: five shards — four 16B group shards plus one 8B
// detection shard of per-group checksum16 sums (physically two x4 chips).
func (s *RAIMParity) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, rpGroups+1)}
	det := make([]byte, 0, rpGroups*rpDetBytes)
	for g := 0; g < rpGroups; g++ {
		shard := append([]byte(nil), data[g*rpShard:(g+1)*rpShard]...)
		cw.Shards[g] = shard
		sum := checksum16(shard)
		det = append(det, sum[0], sum[1])
	}
	cw.Shards[rpGroups] = det
	return cw, s.CorrectionBits(data)
}

// Data implements Scheme.
func (s *RAIMParity) Data(cw *Codeword) []byte {
	out := make([]byte, 0, rpLine)
	for g := 0; g < rpGroups; g++ {
		out = append(out, cw.Shards[g]...)
	}
	return out
}

// CorrectionBits implements Scheme: P = ⊕ shard_g, Q = ⊕ α^g·shard_g,
// both GF(2)-linear in the data.
func (s *RAIMParity) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	out := make([]byte, 2*rpShard)
	p := out[:rpShard]
	q := out[rpShard:]
	for g := 0; g < rpGroups; g++ {
		coef := gf.Exp(g)
		for i := 0; i < rpShard; i++ {
			b := data[g*rpShard+i]
			p[i] ^= b
			q[i] ^= gf.Mul(coef, b)
		}
	}
	return out
}

// Detect implements Scheme: per-group checksum verification.
func (s *RAIMParity) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != rpGroups+1 {
		panic(ErrBadShards)
	}
	det := cw.Shards[rpGroups]
	var res DetectResult
	for g := 0; g < rpGroups; g++ {
		if !checksumMatches(cw.Shards[g], [2]byte{det[2*g], det[2*g+1]}) {
			res.ErrorDetected = true
			res.SuspectChips = append(res.SuspectChips, g)
		}
	}
	return res
}

// Correct implements Scheme using the P/Q pair:
//   - one suspect group: erasure via P, cross-checked against Q;
//   - two suspect groups: two-erasure solve via P and Q;
//   - no suspects (checksum collision or detection-chip fault): locate the
//     single bad group from the P/Q syndrome relation ΔQ = α^g·ΔP.
func (s *RAIMParity) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	if len(cw.Shards) != rpGroups+1 {
		return nil, nil, ErrBadShards
	}
	if len(corr) != s.CorrectionSize() {
		return nil, nil, ErrUncorrectable
	}
	pStored := corr[:rpShard]
	qStored := corr[rpShard:]
	dp, dq := s.syndromes(cw, pStored, qStored)
	det := s.Detect(cw)

	switch len(det.SuspectChips) {
	case 0:
		if allZeroBytes(dp) && allZeroBytes(dq) {
			return s.Data(cw), &CorrectReport{}, nil
		}
		// Locate a single corrupted group: ΔQ must equal α^g·ΔP bytewise.
		g, ok := locateGroup(dp, dq)
		if !ok {
			// Data consistent with neither syndrome pattern; if ΔP is
			// zero everywhere the corruption is confined to the stored
			// correction bits or detection chips — data is intact.
			if allZeroBytes(dp) || allZeroBytes(dq) {
				return s.Data(cw), &CorrectReport{}, nil
			}
			return nil, nil, ErrUncorrectable
		}
		out := s.Data(cw)
		for i := 0; i < rpShard; i++ {
			out[g*rpShard+i] ^= dp[i]
		}
		return out, &CorrectReport{CorrectedChips: []int{g}, UsedErasure: false}, nil
	case 1:
		g := det.SuspectChips[0]
		out := s.Data(cw)
		for i := 0; i < rpShard; i++ {
			out[g*rpShard+i] ^= dp[i]
		}
		// Cross-check the repair against Q.
		if !s.verify(out, pStored, qStored) {
			return nil, nil, ErrUncorrectable
		}
		return out, &CorrectReport{CorrectedChips: []int{g}, UsedErasure: true}, nil
	case 2:
		a, b := det.SuspectChips[0], det.SuspectChips[1]
		out := s.Data(cw)
		// Solve e_a ⊕ e_b = ΔP and α^a·e_a ⊕ α^b·e_b = ΔQ bytewise.
		ca, cb := gf.Exp(a), gf.Exp(b)
		denom := ca ^ cb
		for i := 0; i < rpShard; i++ {
			ea := gf.Div(dq[i]^gf.Mul(cb, dp[i]), denom)
			eb := dp[i] ^ ea
			out[a*rpShard+i] ^= ea
			out[b*rpShard+i] ^= eb
		}
		if !s.verify(out, pStored, qStored) {
			return nil, nil, ErrUncorrectable
		}
		return out, &CorrectReport{CorrectedChips: []int{a, b}, UsedErasure: true}, nil
	default:
		// Three or more suspect groups is consistent with a failed
		// detection device (all its checksums garbage). If P and Q agree
		// with the raw data, the data is intact.
		if allZeroBytes(dp) && allZeroBytes(dq) {
			return s.Data(cw), &CorrectReport{CorrectedChips: []int{rpGroups}}, nil
		}
		return nil, nil, ErrUncorrectable
	}
}

// syndromes returns ΔP and ΔQ between stored correction bits and the
// codeword's current contents.
func (s *RAIMParity) syndromes(cw *Codeword, pStored, qStored []byte) (dp, dq []byte) {
	dp = append([]byte(nil), pStored...)
	dq = append([]byte(nil), qStored...)
	for g := 0; g < rpGroups; g++ {
		coef := gf.Exp(g)
		for i := 0; i < rpShard; i++ {
			b := cw.Shards[g][i]
			dp[i] ^= b
			dq[i] ^= gf.Mul(coef, b)
		}
	}
	return dp, dq
}

// verify recomputes P/Q over a candidate line and compares with stored.
func (s *RAIMParity) verify(line, pStored, qStored []byte) bool {
	recomputed := s.CorrectionBits(line)
	return bytes.Equal(recomputed[:rpShard], pStored) && bytes.Equal(recomputed[rpShard:], qStored)
}

// locateGroup finds g with dq = α^g·dp bytewise, requiring at least one
// nonzero byte and full consistency.
func locateGroup(dp, dq []byte) (int, bool) {
	for g := 0; g < rpGroups; g++ {
		coef := gf.Exp(g)
		consistent := true
		nonzero := false
		for i := range dp {
			if dq[i] != gf.Mul(coef, dp[i]) {
				consistent = false
				break
			}
			if dp[i] != 0 {
				nonzero = true
			}
		}
		if consistent && nonzero {
			return g, true
		}
	}
	return 0, false
}

func allZeroBytes(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
