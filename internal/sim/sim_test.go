package sim

import (
	"bytes"
	"context"
	"math"
	"testing"

	"eccparity/internal/workload"
)

// fastCfg shrinks a run for test speed while keeping statistics meaningful.
func fastCfg(scheme string, class SystemClass, wl string) Config {
	cfg := DefaultConfig(scheme, class, wl)
	cfg.WarmupAccesses = 20000
	cfg.MeasureCycles = 150000
	return cfg
}

// mustRun simulates cfg to completion; the tests never cancel a run.
func mustRun(cfg Config) Result {
	r, err := RunContext(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// evaluate runs an uncanceled grid through New(opts...).Evaluate; nil
// schemeKeys mean PaperSchemes and nil workloads mean all.
func evaluate(t *testing.T, class SystemClass, schemeKeys, workloads []string, opts ...Option) *Evaluation {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	var schemes []SchemeConfig
	for _, k := range schemeKeys {
		schemes = append(schemes, SchemeByKey(k))
	}
	ev, err := s.Evaluate(context.Background(), class, schemes, workloads)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// fig9Rows runs the Fig. 9 characterization with opts: the commercial
// chipkill scheme on the dual-channel system, one cell per workload.
func fig9Rows(t *testing.T, opts ...Option) []Fig9Row {
	t.Helper()
	return evaluate(t, DualEq, []string{"chipkill36"}, nil, opts...).Fig9Rows()
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(fastCfg("lotecc5+parity", QuadEq, "mcf"))
	b := mustRun(fastCfg("lotecc5+parity", QuadEq, "mcf"))
	if a.EPI != b.EPI || a.IPC != b.IPC || a.AccessesPerInstr != b.AccessesPerInstr {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunProducesActivity(t *testing.T) {
	r := mustRun(fastCfg("chipkill36", QuadEq, "lbm"))
	if r.Instructions == 0 || r.IPC <= 0 || r.EPI <= 0 {
		t.Fatalf("dead simulation: %+v", r)
	}
	if r.Mem.TotalReads() == 0 || r.Mem.TotalWrites() == 0 {
		t.Fatal("no memory traffic")
	}
	if r.Cache.Misses[0] == 0 {
		t.Fatal("no cache misses")
	}
}

// TestHeadlineEPIOrdering checks the paper's central result on a
// memory-intensive workload: LOT-ECC5+ECC Parity reduces memory EPI by a
// large factor vs 36-device commercial chipkill, a substantial factor vs
// the other baselines, and is nearly identical to LOT-ECC5 itself.
func TestHeadlineEPIOrdering(t *testing.T) {
	results := map[string]Result{}
	for _, key := range []string{"chipkill36", "chipkill18", "lotecc9", "multiecc", "lotecc5", "lotecc5+parity"} {
		results[key] = mustRun(fastCfg(key, QuadEq, "mcf"))
	}
	p := results["lotecc5+parity"].EPI
	if red := 100 * (results["chipkill36"].EPI - p) / results["chipkill36"].EPI; red < 40 {
		t.Errorf("EPI reduction vs chipkill36 = %.1f%%, want large (paper: ~59%%)", red)
	}
	if red := 100 * (results["chipkill18"].EPI - p) / results["chipkill18"].EPI; red < 10 {
		t.Errorf("EPI reduction vs chipkill18 = %.1f%%, want substantial (paper: ~49%%)", red)
	}
	if red := 100 * (results["lotecc9"].EPI - p) / results["lotecc9"].EPI; red < 5 {
		t.Errorf("EPI reduction vs lotecc9 = %.1f%%, want positive (paper: ~23%%)", red)
	}
	if red := 100 * (results["multiecc"].EPI - p) / results["multiecc"].EPI; red < 5 {
		t.Errorf("EPI reduction vs multiecc = %.1f%%, want positive (paper: ~21%%)", red)
	}
	_ = results["lotecc5"]
}

// TestParityMatchesLOTECC5Energy: the overlay's EPI is essentially
// LOT-ECC5's (its advantage is capacity, §V-A). Full-scale runs are needed
// for the ECC/XOR-cacheline steady state to settle.
func TestParityMatchesLOTECC5Energy(t *testing.T) {
	lot := mustRun(DefaultConfig("lotecc5", QuadEq, "mcf"))
	p := mustRun(DefaultConfig("lotecc5+parity", QuadEq, "mcf"))
	if diff := math.Abs(lot.EPI-p.EPI) / lot.EPI; diff > 0.06 {
		t.Errorf("EPI vs lotecc5 differs %.1f%%, want ≈0 (the overlay only saves capacity)", 100*diff)
	}
}

func TestRAIMParityEPI(t *testing.T) {
	raim := mustRun(fastCfg("raim", QuadEq, "lbm"))
	rp := mustRun(fastCfg("raim+parity", QuadEq, "lbm"))
	red := 100 * (raim.EPI - rp.EPI) / raim.EPI
	if red < 10 {
		t.Errorf("RAIM+Parity EPI reduction %.1f%%, want substantial (paper: ~21%%)", red)
	}
}

// TestBin2SavingsExceedBin1: the access-rate dependence of the savings.
func TestBin2SavingsExceedBin1(t *testing.T) {
	red := func(wl string) float64 {
		base := mustRun(fastCfg("chipkill36", QuadEq, wl))
		p := mustRun(fastCfg("lotecc5+parity", QuadEq, wl))
		return 100 * (base.EPI - p.EPI) / base.EPI
	}
	bin2 := red("lbm")   // memory intensive
	bin1 := red("gobmk") // light
	if bin2 <= bin1 {
		t.Errorf("Bin2 savings (%.1f%%) must exceed Bin1 (%.1f%%)", bin2, bin1)
	}
}

// TestDynamicSavingsComeFromFewerChips: dynamic EPI of LOT5+Parity must be
// far below the 18-device baseline's (5 chips vs 18 per access).
func TestDynamicSavingsComeFromFewerChips(t *testing.T) {
	ck := mustRun(fastCfg("chipkill18", QuadEq, "mcf"))
	p := mustRun(fastCfg("lotecc5+parity", QuadEq, "mcf"))
	if p.DynamicEPI > 0.7*ck.DynamicEPI {
		t.Errorf("dynamic EPI %.0f vs %.0f: expected ≥30%% reduction", p.DynamicEPI, ck.DynamicEPI)
	}
}

// TestAccessOverheadVsChipkill18: Fig. 16's +13.3% average — the parity
// updates cost extra accesses vs a scheme with in-rank ECC. Random-access
// workloads sit above the average, sequential ones below.
func TestAccessOverheadVsChipkill18(t *testing.T) {
	ckRand := mustRun(fastCfg("chipkill18", QuadEq, "mcf"))
	pRand := mustRun(fastCfg("lotecc5+parity", QuadEq, "mcf"))
	if pRand.AccessesPerInstr <= ckRand.AccessesPerInstr {
		t.Error("parity updates must cost extra accesses on random workloads")
	}
	ckSeq := mustRun(fastCfg("chipkill18", QuadEq, "streamcluster"))
	pSeq := mustRun(fastCfg("lotecc5+parity", QuadEq, "streamcluster"))
	overheadSeq := pSeq.AccessesPerInstr / ckSeq.AccessesPerInstr
	overheadRand := pRand.AccessesPerInstr / ckRand.AccessesPerInstr
	if overheadSeq >= overheadRand {
		t.Errorf("sequential XOR-cacheline reuse must cut the overhead: seq %.2f rand %.2f",
			overheadSeq, overheadRand)
	}
}

// TestLargeLineSpatialLocality: Fig. 14's streamcluster effect — the 128B
// baselines never lose on highly sequential workloads (they win outright
// when bandwidth is the bottleneck; at lower pressure both ride the
// compute ceiling), and LOT5+Parity moves fewer 64B-equivalent accesses
// than chipkill36 on random ones (Fig. 16's 20% average).
func TestLargeLineSpatialLocality(t *testing.T) {
	ck36 := mustRun(DefaultConfig("chipkill36", QuadEq, "streamcluster"))
	p := mustRun(DefaultConfig("lotecc5+parity", QuadEq, "streamcluster"))
	if p.IPC > ck36.IPC*1.03 {
		t.Errorf("parity must not meaningfully beat 128B lines on streamcluster: ck36 %.2f vs parity %.2f", ck36.IPC, p.IPC)
	}
	ck36r := mustRun(fastCfg("chipkill36", QuadEq, "mcf"))
	pr := mustRun(fastCfg("lotecc5+parity", QuadEq, "mcf"))
	if pr.AccessesPerInstr >= ck36r.AccessesPerInstr {
		t.Error("64B lines must move less data on random-access workloads")
	}
}

// TestDualEqOverheadHigher: Figs. 16–17 — fewer channels per parity group
// means fewer lines per XOR cacheline and a higher miss rate, so the
// dual-equivalent system pays more traffic overhead than the quad.
func TestDualEqOverheadHigher(t *testing.T) {
	ratio := func(class SystemClass) float64 {
		ck := mustRun(fastCfg("chipkill18", class, "omnetpp"))
		p := mustRun(fastCfg("lotecc5+parity", class, "omnetpp"))
		return p.AccessesPerInstr / ck.AccessesPerInstr
	}
	dual, quad := ratio(DualEq), ratio(QuadEq)
	if dual < quad*0.98 {
		t.Errorf("dual-equivalent overhead (%.3f) should not be below quad (%.3f)", dual, quad)
	}
}

// TestMarkedBanksCostTraffic: the steady-state Step B/D flows — reads to
// faulty banks fetch ECC lines.
func TestMarkedBanksCostTraffic(t *testing.T) {
	clean := fastCfg("lotecc5+parity", QuadEq, "mcf")
	faulty := clean
	faulty.MarkedBankFraction = 0.5
	rc := mustRun(clean)
	rf := mustRun(faulty)
	if rf.Mem.Reads[1] <= rc.Mem.Reads[1] {
		t.Errorf("marked banks must add ECC reads: %d vs %d", rf.Mem.Reads[1], rc.Mem.Reads[1])
	}
	if rf.AccessesPerInstr <= rc.AccessesPerInstr {
		t.Error("marked banks must raise traffic")
	}
}

func TestBaselineSchemesHaveNoECCTraffic(t *testing.T) {
	r := mustRun(fastCfg("chipkill36", QuadEq, "lbm"))
	if r.Mem.Reads[1] != 0 || r.Mem.Writes[1] != 0 {
		t.Fatalf("inline-ECC scheme generated ECC traffic: %+v", r.Mem)
	}
	p := mustRun(fastCfg("lotecc5+parity", QuadEq, "lbm"))
	if p.Mem.Reads[1] == 0 || p.Mem.Writes[1] == 0 {
		t.Fatal("parity scheme must generate parity-line read+write traffic")
	}
}

func TestFig9Characterization(t *testing.T) {
	rows := fig9Rows(t, WithCycles(100000), WithWarmup(8000))
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	util := map[string]float64{}
	for _, r := range rows {
		if r.Utilization < 0 || r.Utilization > 1 {
			t.Fatalf("utilization out of range: %+v", r)
		}
		util[r.Workload] = r.Utilization
	}
	if util["lbm"] <= util["sjeng"] {
		t.Errorf("lbm (%.3f) must use more bandwidth than sjeng (%.3f)", util["lbm"], util["sjeng"])
	}
}

func TestComparisonBins(t *testing.T) {
	ev := evaluate(t, QuadEq,
		[]string{"chipkill36", "lotecc5+parity"},
		[]string{"lbm", "sjeng"},
		WithCycles(100000), WithWarmup(8000))
	cmp := ev.compare("lotecc5+parity", []string{"chipkill36"}, MetricEPI, true)
	if len(cmp.Rows) != 2 {
		t.Fatalf("rows %d", len(cmp.Rows))
	}
	if cmp.Bin2Mean["chipkill36"] <= cmp.Bin1Mean["chipkill36"] {
		t.Errorf("Bin2 mean (%.1f) must exceed Bin1 (%.1f)",
			cmp.Bin2Mean["chipkill36"], cmp.Bin1Mean["chipkill36"])
	}
	if cmp.Mean["chipkill36"] <= 0 {
		t.Error("mean reduction must be positive")
	}
}

func TestFig1Rows(t *testing.T) {
	rows := Fig1CapacityBreakdown()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Correction < r.Detection {
			t.Errorf("%s: correction bits must dominate the overhead (Fig. 1)", r.Scheme)
		}
	}
}

func TestTable3StaticValues(t *testing.T) {
	rows, err := Table3CapacityContext(context.Background(), 200, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"36-device commercial chipkill correct": 0.125,
		"LOT-ECC5":                              0.406,
		"8 chan LOT-ECC5 + ECC Parity":          0.165,
		"4 chan LOT-ECC5 + ECC Parity":          0.219,
		"RAIM":                                  0.406,
		"10 chan RAIM + ECC Parity":             0.188,
		"5 chan RAIM + ECC Parity":              0.266,
	}
	seen := 0
	for _, r := range rows {
		if w, ok := want[r.Config]; ok {
			seen++
			if math.Abs(r.Overhead-w) > 0.002 {
				t.Errorf("%s: overhead %.4f, want %.3f", r.Config, r.Overhead, w)
			}
		}
		if r.EOL != 0 && (r.EOL < r.Overhead || r.EOL > r.Overhead+0.02) {
			t.Errorf("%s: EOL %.4f implausible vs static %.4f", r.Config, r.EOL, r.Overhead)
		}
	}
	if seen != len(want) {
		t.Fatalf("matched %d of %d expected rows", seen, len(want))
	}
}

func TestFig2Shape(t *testing.T) {
	rows := Fig2ChannelFaultGaps()
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanDays >= rows[i-1].MeanDays {
			t.Fatal("mean gap must shrink as FIT grows")
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rows, err := Fig8EOLFractionsContext(context.Background(), 400, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mean <= 0 || r.Mean > 0.05 {
			t.Errorf("channels=%d: mean fraction %.4f out of plausible range", r.Channels, r.Mean)
		}
		if r.P999 < r.Mean {
			t.Errorf("channels=%d: p99.9 below mean", r.Channels)
		}
	}
}

func TestFig18PaperPoint(t *testing.T) {
	rows := Fig18ScrubWindows()
	var found bool
	for _, r := range rows {
		if r.FITPerChip == 100 && r.WindowHours == 8 {
			found = true
			if r.Probability < 1e-4 || r.Probability > 3e-4 {
				t.Errorf("8h/100FIT probability %.6f, paper says ≈0.0002", r.Probability)
			}
		}
	}
	if !found {
		t.Fatal("missing the paper's reference point")
	}
}

// TestEvaluationWorkerCountInvariance is the determinism regression test
// for the simulation grid: the (scheme × workload) matrix must be
// bit-identical whether cells run serially or spread over many goroutines.
func TestEvaluationWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *Evaluation {
		return evaluate(t, QuadEq,
			[]string{"chipkill18", "lotecc5+parity"},
			[]string{"mcf", "lbm"},
			WithCycles(60000), WithWarmup(5000), WithWorkers(workers))
	}
	serial, wide := run(1), run(8)
	for scheme, m := range serial.Results {
		for wl, a := range m {
			b := wide.Results[scheme][wl]
			if a.EPI != b.EPI || a.IPC != b.IPC || a.AccessesPerInstr != b.AccessesPerInstr ||
				a.Mem != b.Mem || a.Cache != b.Cache {
				t.Fatalf("%s/%s diverged across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
					scheme, wl, a, b)
			}
		}
	}
}

// TestFig9WorkerCountInvariance: the per-workload characterization keeps
// spec order and identical numbers at any worker count.
func TestFig9WorkerCountInvariance(t *testing.T) {
	opts := func(w int) []Option {
		return []Option{WithCycles(40000), WithWarmup(4000), WithWorkers(w)}
	}
	serial := fig9Rows(t, opts(1)...)
	wide := fig9Rows(t, opts(8)...)
	if len(serial) != len(wide) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("row %d diverged: %+v vs %+v", i, serial[i], wide[i])
		}
	}
}

func TestWithSeedChangesWorkloadStream(t *testing.T) {
	base := fastCfg("chipkill18", QuadEq, "mcf")
	WithSeed(2)(&base)
	if base.Seed != 2 {
		t.Fatalf("WithSeed not applied: %d", base.Seed)
	}
	a := mustRun(base)
	b := mustRun(fastCfg("chipkill18", QuadEq, "mcf")) // seed 1
	if a.Instructions == b.Instructions && a.EPI == b.EPI {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSchemeRegistryComplete(t *testing.T) {
	keys := []string{"chipkill36", "chipkill18", "lotecc5", "lotecc9", "multiecc", "lotecc5+parity", "raim", "raim+parity"}
	for _, k := range keys {
		sc := SchemeByKey(k)
		if sc.Base == nil {
			t.Fatalf("%s has no base scheme", k)
		}
		if sc.Channels(DualEq) <= 0 || sc.Channels(QuadEq) <= sc.Channels(DualEq)-1 {
			t.Fatalf("%s has bad channel config", k)
		}
	}
}

func TestUnknownSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	SchemeByKey("nope")
}

// TestDisableECCCachingCostsTraffic: the Fig. 7 optimizations are worth
// real bandwidth — switching them off must raise accesses per instruction.
func TestDisableECCCachingCostsTraffic(t *testing.T) {
	on := fastCfg("lotecc5+parity", QuadEq, "lbm")
	off := on
	off.DisableECCCaching = true
	rOn, rOff := mustRun(on), mustRun(off)
	if rOff.AccessesPerInstr <= rOn.AccessesPerInstr {
		t.Errorf("uncached ECC updates must cost traffic: on=%.4f off=%.4f",
			rOn.AccessesPerInstr, rOff.AccessesPerInstr)
	}
	base := fastCfg("lotecc5", QuadEq, "lbm")
	baseOff := base
	baseOff.DisableECCCaching = true
	bOn, bOff := mustRun(base), mustRun(baseOff)
	if bOff.AccessesPerInstr <= bOn.AccessesPerInstr {
		t.Error("uncached GEC updates must cost traffic for baseline LOT-ECC too")
	}
}

// TestScrubTraffic: the scrubber's reads show up in their own class and in
// the energy, at a rate set by the interval.
func TestScrubTraffic(t *testing.T) {
	cfg := fastCfg("lotecc5+parity", QuadEq, "gobmk")
	cfg.ScrubLineInterval = 100
	r := mustRun(cfg)
	if r.Mem.Reads[2] == 0 {
		t.Fatal("no scrub reads recorded")
	}
	want := uint64(cfg.MeasureCycles / cfg.ScrubLineInterval)
	if r.Mem.Reads[2] > want || r.Mem.Reads[2] < want/2 {
		t.Errorf("scrub reads %d, want ≈%d", r.Mem.Reads[2], want)
	}
	cfg2 := cfg
	cfg2.ScrubLineInterval = 1000
	r2 := mustRun(cfg2)
	if r2.Mem.Reads[2] >= r.Mem.Reads[2] {
		t.Error("longer interval must mean fewer scrub reads")
	}
}

// TestMixedRankAnalysis: §VI-A — hot pages in wide-DRAM ranks capture most
// of the energy advantage while narrow ranks keep capacity high, and the
// Parity overlay makes the shared high-strength ECC affordable.
func TestMixedRankAnalysis(t *testing.T) {
	res := MixedRankAnalysis(MixedRankConfig{WideRanks: 2, NarrowRanks: 2, HotFraction: 0.9, Channels: 8})
	if res.WideAccess >= res.NarrowAccess {
		t.Fatalf("5-chip rank access (%.0f pJ) must be cheaper than 18-chip (%.0f pJ)",
			res.WideAccess, res.NarrowAccess)
	}
	// 90% hot placement must capture most of the all-wide saving.
	allWide := res.WideAccess / res.NarrowAccess
	if res.BlendedVsAllNarrow > allWide+0.15 {
		t.Fatalf("90%% hot placement ratio %.2f too far from all-wide %.2f",
			res.BlendedVsAllNarrow, allWide)
	}
	// Half the slots narrow keeps well over half the all-narrow capacity.
	if res.RelativeCapacity < 0.6 {
		t.Fatalf("relative capacity %.2f", res.RelativeCapacity)
	}
	if res.OverheadWithParity >= res.OverheadWithoutParity {
		t.Fatal("the overlay must cut the shared ECC's capacity overhead")
	}
}

func TestMixedRankSweepMonotone(t *testing.T) {
	rows := MixedRankSweep()
	for i := 1; i < len(rows); i++ {
		if rows[i].Blended > rows[i-1].Blended {
			t.Fatal("energy must fall as hot placement improves")
		}
	}
	if rows[0].BlendedVsAllNarrow != 1 {
		t.Fatalf("h=0 must match all-narrow, got %v", rows[0].BlendedVsAllNarrow)
	}
}

// TestTraceDrivenRunMatchesLive: recording a workload and replaying the
// trace must produce bit-identical simulation results.
func TestTraceDrivenRunMatchesLive(t *testing.T) {
	cfg := fastCfg("lotecc5+parity", QuadEq, "milc")
	live := mustRun(cfg)

	srcs := make([]workload.Source, cfg.Cores)
	// Enough accesses for warmup plus measurement (the trace loops if it
	// runs short, which would diverge, so record generously).
	perCore := cfg.WarmupAccesses + 40000
	for i := 0; i < cfg.Cores; i++ {
		var buf bytes.Buffer
		g := workload.NewGenerator(cfg.Workload, i, cfg.Seed)
		if err := workload.WriteTrace(&buf, g, perCore); err != nil {
			t.Fatal(err)
		}
		tr, err := workload.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = tr
	}
	cfg.Sources = srcs
	replayed := mustRun(cfg)
	if live.EPI != replayed.EPI || live.IPC != replayed.IPC ||
		live.AccessesPerInstr != replayed.AccessesPerInstr {
		t.Fatalf("trace replay diverged: live %+v vs replay %+v", live, replayed)
	}
}

func TestSourcesLengthValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Sources length must panic")
		}
	}()
	cfg := fastCfg("chipkill18", QuadEq, "sjeng")
	cfg.Sources = make([]workload.Source, 3)
	mustRun(cfg)
}

// TestOpenPagePolicy: the row-policy ablation — open-page earns row hits
// (cutting activate energy) on sequential workloads, while close-page
// keeps background energy lower via rank sleep; the paper's configuration
// choice (§IV-B) is the background side of this trade.
func TestOpenPagePolicy(t *testing.T) {
	cfg := fastCfg("lotecc5+parity", QuadEq, "streamcluster")
	closed := mustRun(cfg)
	cfg.OpenPage = true
	open := mustRun(cfg)
	if open.Mem.RowHits == 0 {
		t.Fatal("open-page on a sequential workload must earn row hits")
	}
	if closed.Mem.RowHits != 0 {
		t.Fatal("close-page must not register row hits")
	}
	// Row hits save activates: per-access dynamic energy must drop.
	dynPerAccOpen := open.Mem.DynamicEnergy() / float64(open.Mem.TotalReads()+open.Mem.TotalWrites())
	dynPerAccClosed := closed.Mem.DynamicEnergy() / float64(closed.Mem.TotalReads()+closed.Mem.TotalWrites())
	if dynPerAccOpen >= dynPerAccClosed {
		t.Fatalf("open-page row hits must cut dynamic energy per access: open %.0f closed %.0f",
			dynPerAccOpen, dynPerAccClosed)
	}
}

func BenchmarkSimulationCell(b *testing.B) {
	// One (scheme, workload) matrix cell at test scale — the unit of work
	// behind Figs. 9–17.
	for i := 0; i < b.N; i++ {
		mustRun(fastCfg("lotecc5+parity", QuadEq, "milc"))
	}
}
