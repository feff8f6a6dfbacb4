// Package eccparity's top-level benchmark harness regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index):
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report their headline series as custom metrics (bin
// means, reductions, normalized ratios) and log the per-workload rows with
// -v. The simulation matrices are built once and shared across benchmarks.
package eccparity

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"eccparity/internal/core"
	"eccparity/internal/ecc"
	"eccparity/internal/faultmodel"
	"eccparity/internal/sim"
	"eccparity/internal/sim/report"
)

// Shared evaluation matrices (reduced scale: 150K measured cycles).
var (
	evalOnce sync.Once
	evalQuad *sim.Evaluation
	evalDual *sim.Evaluation
)

func matrices(b *testing.B) (*sim.Evaluation, *sim.Evaluation) {
	evalOnce.Do(func() {
		opts := []sim.Option{sim.WithCycles(150000), sim.WithWarmup(20000)}
		evalQuad = evaluate(b, sim.QuadEq, nil, nil, opts...)
		evalDual = evaluate(b, sim.DualEq, nil, nil, opts...)
	})
	return evalQuad, evalDual
}

// evaluate runs an uncanceled grid through sim.New(opts...).Evaluate; nil
// schemeKeys mean the paper's schemes and nil workloads mean all.
func evaluate(b *testing.B, class sim.SystemClass, schemeKeys, workloads []string, opts ...sim.Option) *sim.Evaluation {
	b.Helper()
	s, err := sim.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	var schemes []sim.SchemeConfig
	for _, k := range schemeKeys {
		schemes = append(schemes, sim.SchemeByKey(k))
	}
	ev, err := s.Evaluate(context.Background(), class, schemes, workloads)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// run simulates one cell to completion.
func run(b *testing.B, cfg sim.Config) sim.Result {
	b.Helper()
	r, err := sim.RunContext(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// reportComparison publishes a figure's headline numbers as bench metrics.
func reportComparison(b *testing.B, c sim.Comparison, unit string) {
	b.Helper()
	for _, base := range c.Baselines {
		b.ReportMetric(c.Bin1Mean[base], "bin1_vs_"+base+"_"+unit)
		b.ReportMetric(c.Bin2Mean[base], "bin2_vs_"+base+"_"+unit)
	}
	for _, row := range c.Rows {
		b.Logf("%-15s %v", row.Workload, row.Value)
	}
}

func BenchmarkFig1CapacityBreakdown(b *testing.B) {
	var rows []sim.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = sim.Fig1CapacityBreakdown()
	}
	for _, r := range rows {
		b.Logf("%-38s det %.3f corr %.3f", r.Scheme, r.Detection, r.Correction)
	}
	b.ReportMetric(rows[0].Correction/(rows[0].Detection+rows[0].Correction), "corr_share_ck36")
}

func BenchmarkFig2MTBFAcrossChannels(b *testing.B) {
	var rows []sim.Fig2Row
	for i := 0; i < b.N; i++ {
		rows = sim.Fig2ChannelFaultGaps()
	}
	for _, r := range rows {
		b.Logf("%.0f FIT → %.0f days", r.FITPerChip, r.MeanDays)
		if r.FITPerChip == 44 {
			b.ReportMetric(r.MeanDays, "days_at_44FIT")
		}
	}
}

func BenchmarkFig8EOLCorrectionFraction(b *testing.B) {
	var rows []sim.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = sim.Fig8EOLFractionsContext(context.Background(), 800, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%d channels: mean %.4f p99.9 %.4f", r.Channels, r.Mean, r.P999)
		if r.Channels == 8 {
			b.ReportMetric(100*r.Mean, "pct_mean_8chan")
		}
	}
}

func BenchmarkFig9BandwidthCharacterization(b *testing.B) {
	var rows []sim.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = evaluate(b, sim.DualEq, []string{"chipkill36"}, nil, sim.WithCycles(100000), sim.WithWarmup(10000)).Fig9Rows()
	}
	var bin2 float64
	for _, r := range rows {
		b.Logf("%-15s util %.3f (%.1f GB/s)", r.Workload, r.Utilization, r.GBs)
		if r.Bin2 {
			bin2 += r.Utilization / 8
		}
	}
	b.ReportMetric(bin2, "bin2_mean_util")
}

func BenchmarkFig10EPIQuad(b *testing.B) {
	q, _ := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = q.Fig10EPI()
	}
	reportComparison(b, cmp, "redpct")
	var raim sim.Comparison
	raim = q.FigRAIMEPI()
	b.ReportMetric(raim.Bin2Mean["raim"], "bin2_raim_redpct")
}

func BenchmarkFig11EPIDual(b *testing.B) {
	_, d := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = d.Fig10EPI()
	}
	reportComparison(b, cmp, "redpct")
}

func BenchmarkFig12DynamicEPI(b *testing.B) {
	q, _ := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = q.Fig12Dynamic()
	}
	reportComparison(b, cmp, "redpct")
}

func BenchmarkFig13BackgroundEPI(b *testing.B) {
	q, _ := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = q.Fig13Background()
	}
	reportComparison(b, cmp, "redpct")
}

func BenchmarkFig14PerfQuad(b *testing.B) {
	q, _ := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = q.Fig14Perf()
	}
	reportComparison(b, cmp, "x")
}

func BenchmarkFig15PerfDual(b *testing.B) {
	_, d := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = d.Fig14Perf()
	}
	reportComparison(b, cmp, "x")
}

func BenchmarkFig16AccessesQuad(b *testing.B) {
	q, _ := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = q.Fig16Accesses()
	}
	reportComparison(b, cmp, "x")
}

func BenchmarkFig17AccessesDual(b *testing.B) {
	_, d := matrices(b)
	var cmp sim.Comparison
	for i := 0; i < b.N; i++ {
		cmp = d.Fig16Accesses()
	}
	reportComparison(b, cmp, "x")
}

func BenchmarkFig18ScrubWindow(b *testing.B) {
	var rows []sim.Fig18Row
	for i := 0; i < b.N; i++ {
		rows = sim.Fig18ScrubWindows()
	}
	for _, r := range rows {
		if r.FITPerChip == 100 && r.WindowHours == 8 {
			b.ReportMetric(r.Probability*1e4, "prob_x1e4_8h_100FIT")
		}
	}
}

func BenchmarkTable3CapacityOverheads(b *testing.B) {
	var rows []sim.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = sim.Table3CapacityContext(context.Background(), 400, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-40s %.3f EOL %.3f", r.Config, r.Overhead, r.EOL)
		if r.Config == "8 chan LOT-ECC5 + ECC Parity" {
			b.ReportMetric(100*r.Overhead, "pct_8chan_lot5_parity")
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkParallelSpeedup measures the wall-clock scaling of the two
// fan-out substrates — a Monte Carlo EOL campaign and a (scheme × workload)
// simulation grid — across worker counts. Every sub-benchmark computes the
// same numbers (determinism is worker-count-invariant); only the wall clock
// changes. ns/op across the workers=… variants is the repo's perf
// trajectory record in EXPERIMENTS.md.
func BenchmarkParallelSpeedup(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	topo := faultmodel.PaperTopology(8)
	rates := faultmodel.DefaultRates()
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("montecarlo/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faultmodel.SimulateEOLContext(context.Background(), topo, rates, 7*faultmodel.HoursPerYear, 2000, 1, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("simgrid/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				evaluate(b, sim.QuadEq,
					[]string{"chipkill18", "lotecc5+parity"},
					[]string{"mcf", "lbm", "milc", "omnetpp"},
					sim.WithCycles(60000), sim.WithWarmup(5000), sim.WithWorkers(w))
			}
		})
	}
}

// BenchmarkAblationCounterThreshold: pages retired before a bank fault
// saturates the pair counter, across thresholds.
func BenchmarkAblationCounterThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, th := range []uint8{1, 2, 4, 8} {
			s := core.NewSystem(core.Config{
				Base:             ecc.NewLOTECC5(),
				Channels:         4,
				BanksPerChannel:  4,
				RowsPerBank:      16,
				SlotsPerRow:      4,
				CounterThreshold: th,
			})
			for row := 0; row < 16; row++ {
				for slot := 0; slot < 4; slot++ {
					for ch := 0; ch < 4; ch++ {
						_ = s.Write(core.LineAddr{Channel: ch, Bank: 0, Row: row, Slot: slot},
							make([]byte, s.LineSize()))
					}
				}
			}
			s.InjectFault(core.InjectedFault{Channel: 0, Bank: 0, Row: -1, Shard: 0, Mask: 0x55})
			s.Scrub()
			if i == 0 {
				b.Logf("threshold %d: retired %d pages, marked pairs %d",
					th, s.Stats.PagesRetired, s.Health().MarkedPairs())
			}
		}
	}
}

// BenchmarkAblationXORCaching: traffic with and without the Fig. 7 LLC
// optimizations.
func BenchmarkAblationXORCaching(b *testing.B) {
	var on, off sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, "lbm")
		cfg.MeasureCycles = 150000
		cfg.WarmupAccesses = 20000
		on = run(b, cfg)
		cfg.DisableECCCaching = true
		off = run(b, cfg)
	}
	b.ReportMetric(on.AccessesPerInstr*1000, "acc_per_kinstr_cached")
	b.ReportMetric(off.AccessesPerInstr*1000, "acc_per_kinstr_uncached")
}

// BenchmarkAblationChannelCount: the capacity overhead as the parity group
// widens (the paper's N−1 scaling).
func BenchmarkAblationChannelCount(b *testing.B) {
	r := ecc.R(ecc.NewLOTECC5())
	var last float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{2, 4, 8, 16} {
			last = core.StaticOverhead(r, n)
			if i == 0 {
				b.Logf("N=%2d: %.4f", n, last)
			}
		}
	}
	b.ReportMetric(100*last, "pct_overhead_16chan")
}

// BenchmarkAblationSleepThreshold: background energy vs the rank
// power-down threshold (the close-page sleep policy the paper leans on).
func BenchmarkAblationSleepThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{1, 12, 120, 1e9} {
			cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, "omnetpp")
			cfg.MeasureCycles = 120000
			cfg.WarmupAccesses = 15000
			cfg.PowerDownThreshold = th
			r := run(b, cfg)
			if i == 0 {
				b.Logf("threshold %8.0f: background EPI %.0f pJ", th, r.BackgroundEPI)
			}
		}
	}
}

// BenchmarkAblationScrubTraffic: bandwidth cost of scrub intervals.
func BenchmarkAblationScrubTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, interval := range []float64{0, 1000, 100, 10} {
			cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, "gobmk")
			cfg.MeasureCycles = 120000
			cfg.WarmupAccesses = 15000
			cfg.ScrubLineInterval = interval
			r := run(b, cfg)
			if i == 0 {
				b.Logf("scrub interval %6.0f: %.4f acc/instr, EPI %.0f",
					interval, r.AccessesPerInstr, r.EPI)
			}
		}
	}
}

// BenchmarkSpeedBinTradeoff: §V-D — the 16% faster speed bin should cost
// only a few percent of EPI while buying back the bandwidth overhead.
func BenchmarkSpeedBinTradeoff(b *testing.B) {
	var base, fast sim.Result
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, "lbm")
		cfg.MeasureCycles = 120000
		cfg.WarmupAccesses = 15000
		base = run(b, cfg)
		cfg.SpeedBinFactor = 1.16
		fast = run(b, cfg)
	}
	b.ReportMetric(fast.EPI/base.EPI, "epi_ratio_fast_bin")
}

// BenchmarkHPCStallEstimate: §VI-B.
func BenchmarkHPCStallEstimate(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = faultmodel.DefaultHPCConfig().StallFraction()
	}
	b.ReportMetric(100*frac, "stall_pct")
}

// BenchmarkUndetectedErrorEstimate: §VI-D.
func BenchmarkUndetectedErrorEstimate(b *testing.B) {
	var years float64
	for i := 0; i < b.N; i++ {
		years = faultmodel.UndetectedErrorYears(faultmodel.PaperTopology(8), faultmodel.DefaultRates(), 4)
	}
	b.ReportMetric(years/1000, "kyears_between_undetected")
}

// BenchmarkMixedRankAnalysis: the §VI-A capacity/energy trade-off.
func BenchmarkMixedRankAnalysis(b *testing.B) {
	var rows []sim.MixedRankResult
	for i := 0; i < b.N; i++ {
		rows = sim.MixedRankSweep()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.BlendedVsAllNarrow, "allwide_energy_ratio")
	b.ReportMetric(rows[3].BlendedVsAllNarrow, "hot90_energy_ratio")
	b.ReportMetric(rows[3].RelativeCapacity, "capacity_ratio")
}

// BenchmarkAblationRowPolicy: close-page (the paper's choice, enabling
// aggressive rank sleep) vs open-page (row-buffer hits, but ranks pinned
// active) on a sequential and a random workload.
func BenchmarkAblationRowPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wl := range []string{"streamcluster", "mcf"} {
			for _, open := range []bool{false, true} {
				cfg := sim.DefaultConfig("lotecc5+parity", sim.QuadEq, wl)
				cfg.MeasureCycles = 120000
				cfg.WarmupAccesses = 15000
				cfg.OpenPage = open
				r := run(b, cfg)
				if i == 0 {
					b.Logf("%-14s openPage=%-5v EPI=%6.0f dyn=%6.0f bg=%6.0f rowHits=%d",
						wl, open, r.EPI, r.DynamicEPI, r.BackgroundEPI, r.Mem.RowHits)
				}
			}
		}
	}
}

// sweepThroughputPoints is the benchmark grid: every eccsim experiment at
// two Monte Carlo budgets — a 34-point convergence-check sweep (does Table
// III move between 30 and 60 trials?). Trials is part of each point's
// result identity but does not touch the (scheme × workload) simulation
// matrices, so the grid carries exactly the redundancy real cross-product
// sweeps do: the per-point baseline recomputes 16 matrices, the batch
// executor computes 2.
func sweepThroughputPoints() []report.SweepPoint {
	pts := []report.SweepPoint{}
	for _, trials := range []int{30, 60} {
		p := report.Params{Cycles: 30000, Warmup: 3000, Trials: trials, Seed: 1}
		for _, id := range report.AllIDs() {
			pts = append(pts, report.SweepPoint{Experiment: id, Params: p})
		}
	}
	return pts
}

// BenchmarkSweepThroughput is the tentpole number of the batch-executor
// work: aggregate throughput of a multi-point sweep, per-point jobs (one
// fresh Runner per point — the daemon's pre-batch behaviour) vs one
// report.RunBatch. Per-point results are byte-identical between the arms
// (TestRunBatchMatchesIndependentRuns pins that); only wall clock differs.
// The speedup is eval-matrix sharing, not parallelism, so it holds at any
// core count.
func BenchmarkSweepThroughput(b *testing.B) {
	points := sweepThroughputPoints()
	b.Run("per-point-jobs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pt := range points {
				if _, err := report.NewRunner(pt.Params, nil).RunContext(context.Background(), pt.Experiment); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(points))/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := report.RunBatch(context.Background(), points, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(points))/b.Elapsed().Seconds(), "points/s")
	})
}

// BenchmarkSingleRunHotPath times one sim.RunContext — the unit the hot-path
// optimization work targets (indexed core heap, positional-LRU cache sets,
// open-addressed inflight table, bus slot rings, tabulated GF multiplies).
// -benchmem makes allocation regressions in the access path visible; pair
// with -cpuprofile/-memprofile to see where a run's cycles go.
func BenchmarkSingleRunHotPath(b *testing.B) {
	cfg := sim.DefaultConfig("chipkill18", sim.QuadEq, "mcf")
	cfg.MeasureCycles = 150000
	cfg.WarmupAccesses = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run(b, cfg)
	}
}

// BenchmarkHarpProfile is the HARP-style profiling campaign added with the
// scheme layer: iterative at-risk-bit discovery with the on-die corrector
// active vs bypassed. The headline metrics are the final coverage split the
// harpprofile experiment serves and the campaign throughput.
func BenchmarkHarpProfile(b *testing.B) {
	cfg := faultmodel.HarpConfig{
		Words: 64, AtRiskPerWord: 3, ErrorProb: 0.25, Rounds: 16,
		Trials: 256, Seed: 1, Workers: runtime.NumCPU(),
	}
	var res faultmodel.HarpResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = faultmodel.ProfileHarpContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	final := res.Final()
	b.ReportMetric(100*final.RawCoverage, "raw_cov_pct")
	b.ReportMetric(100*final.ActiveCoverage, "active_cov_pct")
	b.ReportMetric(float64(cfg.Trials*b.N)/b.Elapsed().Seconds(), "trials_per_s")
}

// BenchmarkOnDieCompositeCorrect measures the cross-layer codec hot path:
// encode, on-die scrub, and rank-level correct of one 128B line under the
// ondie+chipkill composite.
func BenchmarkOnDieCompositeCorrect(b *testing.B) {
	s := ecc.ByName("ondie+chipkill")
	line := make([]byte, s.Geometry().LineSize)
	for i := range line {
		line[i] = byte(i * 37)
	}
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw, corr := s.Encode(line)
		cw.Shards[i%len(cw.Shards)][0] ^= 0x10
		if _, _, err := s.Correct(cw, corr); err != nil {
			b.Fatal(err)
		}
	}
}
