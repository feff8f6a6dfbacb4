package report

// The daemon-first experiments added with the scheme layer: none of them is
// in `eccsim -exp all`, so its golden byte-identity is untouched, but all
// three run through the same Runner/registry plumbing — servable, cacheable
// and sweepable like every figure.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"eccparity/internal/dram"
	"eccparity/internal/ecc"
	"eccparity/internal/faultmodel"
	"eccparity/internal/sim"
)

// SchemeEvalRow is one workload's full-system metrics under the selected
// scheme (quad-equivalent class).
type SchemeEvalRow struct {
	Workload         string  `json:"workload"`
	IPC              float64 `json:"ipc"`
	EPI              float64 `json:"epi_pj"`
	DynamicEPI       float64 `json:"dynamic_epi_pj"`
	BackgroundEPI    float64 `json:"background_epi_pj"`
	AccessesPerInstr float64 `json:"accesses_per_instr"`
	BandwidthUtil    float64 `json:"bandwidth_util"`
	BandwidthGBs     float64 `json:"bandwidth_gbs"`
}

// SchemeEvalData is the schemeeval experiment's structured result.
type SchemeEvalData struct {
	Scheme        string          `json:"scheme"`
	Options       string          `json:"options,omitempty"`
	Display       string          `json:"display"`
	OnDieOverhead float64         `json:"on_die_overhead,omitempty"`
	Rows          []SchemeEvalRow `json:"rows"`
}

func schemeEval(ctx context.Context, r *Runner, w io.Writer) (any, error) {
	scheme, options := r.schemeFor("ondie+chipkill")
	sc, err := sim.SchemeVariant(scheme, options)
	if err != nil {
		return nil, err
	}
	header(w, fmt.Sprintf("Scheme evaluation — %s, quad-equivalent systems", sc.Display))
	s, err := sim.New(r.opts()...)
	if err != nil {
		return nil, err
	}
	done := r.stage("schemeeval: %s across all workloads, workers=%d", sc.Key, r.p.Workers)
	ev, err := s.Evaluate(ctx, sim.QuadEq, []sim.SchemeConfig{sc}, nil)
	if err != nil {
		return nil, err
	}
	done()
	data := SchemeEvalData{
		Scheme: scheme, Options: options,
		Display: sc.Display, OnDieOverhead: sc.OnDieOverhead,
	}
	fmt.Fprintf(w, "%-15s %6s %10s %10s %10s %8s %9s\n",
		"workload", "IPC", "EPI pJ", "dyn pJ", "bg pJ", "acc/inst", "BW util")
	for _, wl := range ev.Workloads() {
		res := ev.Results[sc.Key][wl]
		fmt.Fprintf(w, "%-15s %6.3f %10.1f %10.1f %10.1f %8.4f %8.1f%%\n",
			wl, res.IPC, res.EPI, res.DynamicEPI, res.BackgroundEPI,
			res.AccessesPerInstr, 100*res.BandwidthUtil)
		data.Rows = append(data.Rows, SchemeEvalRow{
			Workload: wl, IPC: res.IPC, EPI: res.EPI,
			DynamicEPI: res.DynamicEPI, BackgroundEPI: res.BackgroundEPI,
			AccessesPerInstr: res.AccessesPerInstr,
			BandwidthUtil:    res.BandwidthUtil, BandwidthGBs: res.BandwidthGBs,
		})
	}
	return data, nil
}

// FaultInjectRow is one fault pattern's Monte Carlo outcome counts.
type FaultInjectRow struct {
	Pattern string `json:"pattern"`
	Trials  int    `json:"trials"`
	// OnDieCorrected counts trials in which at least one chip's on-die
	// corrector acted (repair or miscorrection) — zero for rank-only
	// schemes and under passthrough.
	OnDieCorrected   int `json:"on_die_corrected"`
	Corrected        int `json:"corrected"`
	Uncorrectable    int `json:"uncorrectable"`
	SilentCorruption int `json:"silent_corruption"`
}

// FaultInjectData is the faultinject experiment's structured result.
type FaultInjectData struct {
	Scheme  string           `json:"scheme"`
	Options string           `json:"options,omitempty"`
	Rows    []FaultInjectRow `json:"rows"`
}

// faultInjectPatterns enumerates the injected fault classes, smallest to
// largest: the paper's single-bit fault, a double-bit fault inside one
// device (the on-die miscorrection trigger), and a dead device.
var faultInjectPatterns = []struct {
	name   string
	inject func(rng *rand.Rand, cw *ecc.Codeword)
}{
	{"single-bit", func(rng *rand.Rand, cw *ecc.Codeword) {
		chip := rng.Intn(len(cw.Shards))
		bit := rng.Intn(8 * len(cw.Shards[chip]))
		cw.Shards[chip][bit/8] ^= 1 << uint(bit%8)
	}},
	{"double-bit-chip", func(rng *rand.Rand, cw *ecc.Codeword) {
		chip := rng.Intn(len(cw.Shards))
		n := 8 * len(cw.Shards[chip])
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		cw.Shards[chip][a/8] ^= 1 << uint(a%8)
		cw.Shards[chip][b/8] ^= 1 << uint(b%8)
	}},
	{"chip-kill", func(rng *rand.Rand, cw *ecc.Codeword) {
		rng.Read(cw.Shards[rng.Intn(len(cw.Shards))])
	}},
}

func faultInject(ctx context.Context, r *Runner, w io.Writer) (any, error) {
	scheme, options := r.schemeFor("ondie+chipkill")
	s, err := ecc.Build(scheme, options)
	if err != nil {
		return nil, err
	}
	header(w, fmt.Sprintf("Fault injection — %s, %d trials per pattern", s.Name(), r.p.Trials))
	data := FaultInjectData{Scheme: scheme, Options: options}
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s\n",
		"pattern", "trials", "on-die", "corr", "uncorr", "silent")
	line := make([]byte, s.Geometry().LineSize)
	for pi, pat := range faultInjectPatterns {
		// One private stream per pattern, derived with the campaign-seed
		// discipline: results depend only on (seed, pattern), never on the
		// other patterns' draw counts.
		rng := rand.New(rand.NewSource(faultmodel.TrialSeed(r.p.Seed, pi)))
		row := FaultInjectRow{Pattern: pat.name, Trials: r.p.Trials}
		for trial := 0; trial < r.p.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rng.Read(line)
			cw, corr := s.Encode(line)
			pat.inject(rng, cw)
			if od, ok := s.(interface {
				Scrub(*ecc.Codeword) []dram.ScrubResult
			}); ok {
				for _, sr := range od.Scrub(cw.Clone()) {
					if sr.Outcome == dram.ScrubCorrected {
						row.OnDieCorrected++
						break
					}
				}
			}
			got, _, err := s.Correct(cw, corr)
			switch {
			case err != nil:
				row.Uncorrectable++
			case bytes.Equal(got, line):
				row.Corrected++
			default:
				row.SilentCorruption++
			}
		}
		fmt.Fprintf(w, "%-16s %8d %8d %8d %8d %8d\n", row.Pattern,
			row.Trials, row.OnDieCorrected, row.Corrected, row.Uncorrectable, row.SilentCorruption)
		data.Rows = append(data.Rows, row)
	}
	return data, nil
}

// HarpProfileData is the harpprofile experiment's structured result.
type HarpProfileData struct {
	Words         int                    `json:"words"`
	AtRiskPerWord int                    `json:"at_risk_per_word"`
	ErrorProb     float64                `json:"error_prob"`
	Trials        int                    `json:"trials"`
	Rounds        []faultmodel.HarpRound `json:"rounds"`
}

func harpProfile(ctx context.Context, r *Runner, w io.Writer) (any, error) {
	header(w, "HARP profiling — at-risk bit coverage, on-die ECC active vs bypassed")
	cfg := faultmodel.HarpConfig{
		Words: 64, AtRiskPerWord: 3, ErrorProb: 0.25, Rounds: 16,
		Trials: r.p.Trials, Seed: r.p.Seed, Workers: r.p.Workers,
	}
	done := r.stage("harpprofile: %d trials × %d words × %d rounds, workers=%d",
		cfg.Trials, cfg.Words, cfg.Rounds, r.p.Workers)
	res, err := faultmodel.ProfileHarpContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	done()
	fmt.Fprintf(w, "%d words, %d at-risk bits/word, p(flip)=%.2f per round, %d trials\n",
		cfg.Words, cfg.AtRiskPerWord, cfg.ErrorProb, cfg.Trials)
	fmt.Fprintf(w, "%5s %12s %12s %14s\n", "round", "raw cov", "active cov", "miscorr rate")
	for _, hr := range res.Rounds {
		fmt.Fprintf(w, "%5d %11.2f%% %11.2f%% %13.4f\n",
			hr.Round, 100*hr.RawCoverage, 100*hr.ActiveCoverage, hr.MiscorrectionRate)
	}
	final := res.Final()
	fmt.Fprintf(w, "after %d rounds: bypass reads cover %.1f%% of at-risk bits vs %.1f%% through the corrector\n",
		final.Round, 100*final.RawCoverage, 100*final.ActiveCoverage)
	return HarpProfileData{
		Words: cfg.Words, AtRiskPerWord: cfg.AtRiskPerWord,
		ErrorProb: cfg.ErrorProb, Trials: cfg.Trials, Rounds: res.Rounds,
	}, nil
}
