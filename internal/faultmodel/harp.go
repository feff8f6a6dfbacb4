package faultmodel

// HARP-style error profiling of a memory with per-chip on-die ECC (after
// "HARP: Practically and Effectively Identifying Uncorrectable Errors in
// Memory Chips That Use On-Die ECC"). The profiler repeatedly reads words
// that contain a fixed set of at-risk (weak) cells, each of which flips
// with some probability per round, and tries to locate every at-risk bit:
//
//   - reading through the active on-die corrector, single-bit errors are
//     repaired invisibly (the profiler learns nothing) and multi-bit
//     errors may surface as miscorrections — error positions that were
//     never at risk — so coverage climbs slowly and the observed position
//     set is polluted;
//   - reading raw (corrector bypassed), every error that fires is visible
//     directly, which is HARP's case for a bypass-read profiling mode.
//
// ProfileHarpContext measures both curves round by round over a Monte Carlo
// campaign, with the same TrialSeed fan-out discipline as the EOL studies
// so results are bit-identical at any worker count.

import (
	"context"
	"fmt"
	"math/rand"

	"eccparity/internal/dram"
)

// HarpConfig parameterizes one profiling campaign.
type HarpConfig struct {
	Words         int     // profiled on-die codewords (64 data bits each)
	AtRiskPerWord int     // weak data bits per word
	ErrorProb     float64 // per-round flip probability of each at-risk bit
	Rounds        int     // profiling rounds
	Trials        int     // Monte Carlo trials
	Seed          int64
	Workers       int // trial-pool size (<=0 means NumCPU)
}

// Validate rejects degenerate campaigns.
func (c HarpConfig) Validate() error {
	switch {
	case c.Words <= 0:
		return fmt.Errorf("faultmodel: harp: words must be positive, got %d", c.Words)
	case c.AtRiskPerWord <= 0 || c.AtRiskPerWord > 64:
		return fmt.Errorf("faultmodel: harp: at-risk bits per word must be in 1..64, got %d", c.AtRiskPerWord)
	case c.ErrorProb <= 0 || c.ErrorProb > 1:
		return fmt.Errorf("faultmodel: harp: error probability must be in (0,1], got %g", c.ErrorProb)
	case c.Rounds <= 0:
		return fmt.Errorf("faultmodel: harp: rounds must be positive, got %d", c.Rounds)
	case c.Trials <= 0:
		return fmt.Errorf("faultmodel: harp: trials must be positive, got %d", c.Trials)
	}
	return nil
}

// HarpRound is the campaign state after one profiling round, averaged over
// trials. Coverages are cumulative fractions of all at-risk bits located so
// far; MiscorrectionRate is the cumulative fraction of active-read observed
// error positions that were never at risk (on-die miscorrection artifacts).
type HarpRound struct {
	Round             int
	RawCoverage       float64
	ActiveCoverage    float64
	MiscorrectionRate float64
}

// HarpResult is a full profiling campaign.
type HarpResult struct {
	Rounds []HarpRound
}

// Final returns the last round's state.
func (r HarpResult) Final() HarpRound {
	if len(r.Rounds) == 0 {
		return HarpRound{}
	}
	return r.Rounds[len(r.Rounds)-1]
}

// harpWordBytes is the profiled word size: one x8 chip's 64-bit fetch.
const harpWordBytes = 8

// harpAcc is one trial's cumulative counters after one round.
type harpAcc struct {
	rawFound    int // at-risk bits located by raw reads
	activeFound int // at-risk bits located through the corrector
	trueObs     int // active-read observations at genuine at-risk positions
	falseObs    int // active-read observations at never-at-risk positions
}

// ProfileHarpContext runs the campaign with cancellation. Trials fan out
// over at most cfg.Workers goroutines; each trial's RNG derives from
// TrialSeed(cfg.Seed, trial) and partial counters reduce in trial order, so
// a completed campaign is bit-identical at any worker count.
func ProfileHarpContext(ctx context.Context, cfg HarpConfig) (HarpResult, error) {
	if err := cfg.Validate(); err != nil {
		return HarpResult{}, err
	}
	codec := dram.NewOnDieSEC(harpWordBytes)
	perTrial, err := runTrials(ctx, cfg.Trials, cfg.Workers, func(i int) []harpAcc {
		rng := rand.New(rand.NewSource(TrialSeed(cfg.Seed, i)))
		return harpTrial(rng, codec, cfg)
	})
	if err != nil {
		return HarpResult{}, err
	}
	atRiskTotal := cfg.Trials * cfg.Words * cfg.AtRiskPerWord
	out := HarpResult{Rounds: make([]HarpRound, cfg.Rounds)}
	for round := 0; round < cfg.Rounds; round++ {
		var sum harpAcc
		for _, rounds := range perTrial {
			sum.rawFound += rounds[round].rawFound
			sum.activeFound += rounds[round].activeFound
			sum.trueObs += rounds[round].trueObs
			sum.falseObs += rounds[round].falseObs
		}
		hr := HarpRound{
			Round:          round + 1,
			RawCoverage:    float64(sum.rawFound) / float64(atRiskTotal),
			ActiveCoverage: float64(sum.activeFound) / float64(atRiskTotal),
		}
		if obs := sum.trueObs + sum.falseObs; obs > 0 {
			hr.MiscorrectionRate = float64(sum.falseObs) / float64(obs)
		}
		out.Rounds[round] = hr
	}
	return out, nil
}

// harpTrial profiles one trial's word population and returns cumulative
// counters per round.
func harpTrial(rng *rand.Rand, codec *dram.OnDieSEC, cfg HarpConfig) []harpAcc {
	type word struct {
		data   []byte
		checks []byte
		atRisk []int        // weak data-bit positions
		isAt   map[int]bool // membership of atRisk
		rawHit []bool       // located by raw reads, indexed like atRisk
		actHit []bool       // located through the corrector
	}
	words := make([]word, cfg.Words)
	for w := range words {
		data := make([]byte, harpWordBytes)
		rng.Read(data)
		perm := rng.Perm(codec.DataBits())[:cfg.AtRiskPerWord]
		isAt := make(map[int]bool, len(perm))
		for _, b := range perm {
			isAt[b] = true
		}
		words[w] = word{
			data: data, checks: codec.Encode(data),
			atRisk: perm, isAt: isAt,
			rawHit: make([]bool, len(perm)), actHit: make([]bool, len(perm)),
		}
	}
	rounds := make([]harpAcc, cfg.Rounds)
	var acc harpAcc
	falseSeen := map[[2]int]bool{} // (word, bit) miscorrection artifacts counted once
	for round := 0; round < cfg.Rounds; round++ {
		for w := range words {
			wd := &words[w]
			var flipped []int
			for _, b := range wd.atRisk {
				if rng.Float64() < cfg.ErrorProb {
					flipped = append(flipped, b)
				}
			}
			if len(flipped) == 0 {
				continue
			}
			// Raw read: every fired bit is visible directly.
			for _, b := range flipped {
				for j, ar := range wd.atRisk {
					if ar == b && !wd.rawHit[j] {
						wd.rawHit[j] = true
						acc.rawFound++
					}
				}
			}
			// Active read: the corrector runs first; the profiler compares
			// the post-correction word against the expected data.
			data := append([]byte(nil), wd.data...)
			checks := append([]byte(nil), wd.checks...)
			for _, b := range flipped {
				data[b/8] ^= 1 << uint(b%8)
			}
			codec.Scrub(data, checks)
			for b := 0; b < codec.DataBits(); b++ {
				if (data[b/8]^wd.data[b/8])&(1<<uint(b%8)) == 0 {
					continue
				}
				if wd.isAt[b] {
					acc.trueObs++
					for j, ar := range wd.atRisk {
						if ar == b && !wd.actHit[j] {
							wd.actHit[j] = true
							acc.activeFound++
						}
					}
				} else if key := [2]int{w, b}; !falseSeen[key] {
					falseSeen[key] = true
					acc.falseObs++
				}
			}
		}
		rounds[round] = acc
	}
	return rounds
}
