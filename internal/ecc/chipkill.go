package ecc

import "eccparity/internal/gf"

// Chipkill models the Reed–Solomon chipkill family: each line is striped
// across x4 chips, one 8-bit code symbol per chip per word, four words per
// line, and a single RS(data+det+corr, data) code protects each word. The
// first det check symbols are the DETECTION bits, stored in the codeword and
// recomputed and compared on every read; the remaining corr symbols are the
// CORRECTION bits, returned apart from the codeword and replaced by the
// cross-channel ECC parity under the overlay in package core. The decode
// policy repairs up to maxFix chips per word and flags larger patterns as
// detected-uncorrectable rather than risk a miscorrection.
//
// Apart from name and geometry, the three configurations differ only in
// those four numbers:
//
//   - NewChipkill36: the 36-device commercial chipkill correct, RS(36,32)
//     (distance 5) with 2 detection and 2 correction symbols, correct-one/
//     detect-two.
//   - NewChipkill18: the 18-device commercial chipkill (AMD family 15h),
//     RS(18,16) whose two check symbols both detect and correct. With no
//     separate correction bits (CorrectionSize 0) the ECC Parity overlay is
//     never applied; it is the low-capacity-overhead, high-power baseline.
//   - NewDoubleChipkill: a double-chipkill-correct ECC, one of the "diverse
//     memory ECCs (e.g., chipkill correct, double chipkill correct, DIMM-kill
//     correct)" the paper names as overlay substrates but does not evaluate.
//     RS(40,32) (distance 9) with 2 detection and 6 correction symbols
//     (24B per 128B line, R = 0.1875), correct-two/detect-more.
type Chipkill struct {
	name   string
	geom   Geometry
	code   *gf.RS
	data   int // data chips (data symbols per word)
	det    int // detection symbols per word, stored in the codeword
	corr   int // correction symbols per word, returned separately
	maxFix int // most symbols one word may repair
}

// ckWords is the number of RS words per line: one symbol per chip per word.
const ckWords = 4

func newChipkill(name string, g Geometry, data, det, corr, maxFix int) *Chipkill {
	return &Chipkill{name: name, geom: g, code: gf.NewRS(data+det+corr, data),
		data: data, det: det, corr: corr, maxFix: maxFix}
}

// NewChipkill36 constructs the 36-device commercial chipkill (Table II
// row 1).
func NewChipkill36() *Chipkill {
	return newChipkill("36-device commercial chipkill", Geometry{
		RankConfig:      "36 x4",
		Chips:           []ChipClass{{Width: 4, Count: 36}},
		LineSize:        128,
		RanksPerChannel: 1,
		ChannelsDualEq:  2,
		ChannelsQuadEq:  4,
		PinsDualEq:      288,
		PinsQuadEq:      576,
	}, 32, 2, 2, 1)
}

// NewChipkill18 constructs the 18-device commercial chipkill (Table II
// row 2). RS(18,16) can never repair more than one symbol per word.
func NewChipkill18() *Chipkill {
	return newChipkill("18-device commercial chipkill", Geometry{
		RankConfig:      "18 x4",
		Chips:           []ChipClass{{Width: 4, Count: 18}},
		LineSize:        64,
		RanksPerChannel: 1,
		ChannelsDualEq:  4,
		ChannelsQuadEq:  8,
		PinsDualEq:      288,
		PinsQuadEq:      576,
	}, 16, 2, 0, 1)
}

// NewDoubleChipkill constructs the double-chipkill-correct scheme. The
// extra correction chips widen the rank to 40 devices; channel counts
// follow the 128B-line commercial layout.
func NewDoubleChipkill() *Chipkill {
	return newChipkill("double chipkill correct", Geometry{
		RankConfig:      "40 x4",
		Chips:           []ChipClass{{Width: 4, Count: 40}},
		LineSize:        128,
		RanksPerChannel: 1,
		ChannelsDualEq:  2,
		ChannelsQuadEq:  4,
		PinsDualEq:      320,
		PinsQuadEq:      640,
	}, 32, 2, 6, 2)
}

// Name implements Scheme.
func (s *Chipkill) Name() string { return s.name }

// Geometry implements Scheme.
func (s *Chipkill) Geometry() Geometry { return s.geom }

// Overheads implements Scheme: the detection and correction check chips
// per data chip (Fig. 1). Chipkill18's two symbols serve detection and
// correction jointly; the paper accounts them as detection-class overhead
// since they are read on every access.
func (s *Chipkill) Overheads() Overheads {
	return Overheads{Detection: float64(s.det) / float64(s.data), Correction: float64(s.corr) / float64(s.data)}
}

// CorrectionSize implements Scheme: corr symbols × four words.
func (s *Chipkill) CorrectionSize() int { return s.corr * ckWords }

// word returns the data symbols of word w of a line.
func (s *Chipkill) word(line []byte, w int) []byte { return line[w*s.data : (w+1)*s.data] }

// Encode implements Scheme. The codeword holds data+det shards of four
// bytes each; the returned correction bits are the last corr RS check
// symbols of every word.
func (s *Chipkill) Encode(data []byte) (*Codeword, []byte) {
	checkLine(s, data)
	cw := &Codeword{Shards: make([][]byte, s.data+s.det)}
	for i := range cw.Shards {
		cw.Shards[i] = make([]byte, ckWords)
	}
	corr := make([]byte, 0, s.CorrectionSize())
	for w := 0; w < ckWords; w++ {
		full := s.code.Encode(s.word(data, w))
		for c := range cw.Shards {
			cw.Shards[c][w] = full[c]
		}
		corr = append(corr, full[len(cw.Shards):]...)
	}
	return cw, corr
}

// Data implements Scheme.
func (s *Chipkill) Data(cw *Codeword) []byte {
	out := make([]byte, s.geom.LineSize)
	for w := 0; w < ckWords; w++ {
		for c := 0; c < s.data; c++ {
			out[w*s.data+c] = cw.Shards[c][w]
		}
	}
	return out
}

// Detect implements Scheme: recomputes the detection check symbols of
// every word and compares them against the stored ones. Inter-chip
// detection has no localization, so SuspectChips is empty.
func (s *Chipkill) Detect(cw *Codeword) DetectResult {
	if len(cw.Shards) != s.data+s.det {
		panic(ErrBadShards)
	}
	line := s.Data(cw)
	for w := 0; w < ckWords; w++ {
		checks := s.code.Checks(s.word(line, w))
		for i := 0; i < s.det; i++ {
			if checks[i] != cw.Shards[s.data+i][w] {
				return DetectResult{ErrorDetected: true}
			}
		}
	}
	return DetectResult{}
}

// CorrectionBits implements Scheme: the last corr RS check symbols of
// every word.
func (s *Chipkill) CorrectionBits(data []byte) []byte {
	checkLine(s, data)
	out := make([]byte, 0, s.CorrectionSize())
	for w := 0; w < ckWords; w++ {
		out = append(out, s.code.Checks(s.word(data, w))[s.det:]...)
	}
	return out
}

// Correct implements Scheme: per-word RS decoding with the supplied
// correction symbols restored after the stored ones. The full code decodes
// any pattern within half its distance unambiguously; the policy then
// accepts words that needed at most maxFix repairs and flags the rest as
// detected-uncorrectable. CorrectedChips lists the repaired stored chips in
// ascending order.
func (s *Chipkill) Correct(cw *Codeword, corr []byte) ([]byte, *CorrectReport, error) {
	stored := s.data + s.det
	if len(cw.Shards) != stored {
		return nil, nil, ErrBadShards
	}
	if len(corr) != s.CorrectionSize() {
		return nil, nil, ErrUncorrectable
	}
	out := make([]byte, s.geom.LineSize)
	fixed := make([]bool, stored)
	full := make([]byte, s.code.N())
	before := make([]byte, len(full))
	for w := 0; w < ckWords; w++ {
		for c := 0; c < stored; c++ {
			full[c] = cw.Shards[c][w]
		}
		copy(full[stored:], corr[w*s.corr:(w+1)*s.corr])
		copy(before, full)
		decoded, err := s.code.Decode(full)
		if err != nil {
			return nil, nil, ErrUncorrectable
		}
		fixes := 0
		for c := range full {
			if full[c] != before[c] {
				fixes++
				if c < stored {
					fixed[c] = true
				}
			}
		}
		if fixes > s.maxFix {
			return nil, nil, ErrUncorrectable
		}
		copy(out[w*s.data:], decoded)
	}
	report := &CorrectReport{}
	for c, f := range fixed {
		if f {
			report.CorrectedChips = append(report.CorrectedChips, c)
		}
	}
	return out, report, nil
}
