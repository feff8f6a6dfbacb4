package faultmodel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatesTotalIs44(t *testing.T) {
	got := DefaultRates().Total()
	if math.Abs(got-44.0) > 1e-9 {
		t.Fatalf("default rates total %v FIT, want 44", got)
	}
}

func TestScaledPreservesMix(t *testing.T) {
	r := DefaultRates()
	s := r.Scaled(100)
	if math.Abs(s.Total()-100) > 1e-9 {
		t.Fatalf("scaled total %v, want 100", s.Total())
	}
	for i := range r {
		ratio := s[i] / r[i]
		if math.Abs(ratio-100.0/44.0) > 1e-9 {
			t.Fatalf("type %v not scaled proportionally", FaultType(i))
		}
	}
}

func TestFaultTypeClassification(t *testing.T) {
	small := []FaultType{FaultBit, FaultWord, FaultColumn, FaultRow}
	large := []FaultType{FaultBank, FaultMultiBank, FaultMultiRank}
	for _, ft := range small {
		if ft.IsLarge() {
			t.Errorf("%v must be a small fault", ft)
		}
	}
	for _, ft := range large {
		if !ft.IsLarge() {
			t.Errorf("%v must be a large fault", ft)
		}
	}
}

func TestFaultTypeStrings(t *testing.T) {
	for ft := FaultBit; ft < numFaultTypes; ft++ {
		if ft.String() == "unknown" {
			t.Errorf("fault type %d has no name", ft)
		}
	}
}

func TestTopologyCounts(t *testing.T) {
	topo := PaperTopology(8)
	if topo.TotalChips() != 8*4*9 {
		t.Fatalf("total chips %d", topo.TotalChips())
	}
	if topo.ChipsPerChannel() != 36 {
		t.Fatalf("chips per channel %d", topo.ChipsPerChannel())
	}
	if topo.TotalBanks() != 8*4*8 {
		t.Fatalf("total banks %d", topo.TotalBanks())
	}
}

func TestSampleLifetimeRate(t *testing.T) {
	// Over many trials, the observed fault count must match λT.
	topo := PaperTopology(8)
	rates := DefaultRates()
	hours := 7 * HoursPerYear
	want := rates.Total() * 1e-9 * float64(topo.TotalChips()) * hours
	var got float64
	const trials = 3000
	m := NewModel(topo, rates)
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		got += float64(len(m.SampleLifetime(rng, hours)))
	}
	got /= trials
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("observed %.3f faults per lifetime, want ≈%.3f", got, want)
	}
}

func TestSampleLifetimeDeterministic(t *testing.T) {
	topo := PaperTopology(4)
	m := NewModel(topo, DefaultRates())
	a := m.SampleLifetime(rand.New(rand.NewSource(42)), 100*HoursPerYear)
	b := m.SampleLifetime(rand.New(rand.NewSource(42)), 100*HoursPerYear)
	if len(a) != len(b) {
		t.Fatal("same seed produced different fault counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different faults")
		}
	}
}

func TestSampleFaultsInBounds(t *testing.T) {
	topo := PaperTopology(8)
	m := NewModel(topo, DefaultRates().Scaled(5000))
	faults := m.SampleLifetime(rand.New(rand.NewSource(7)), 7*HoursPerYear)
	if len(faults) == 0 {
		t.Fatal("expected faults at inflated rate")
	}
	for _, f := range faults {
		if f.Channel < 0 || f.Channel >= topo.Channels ||
			f.Rank < 0 || f.Rank >= topo.RanksPerChannel ||
			f.Chip < 0 || f.Chip >= topo.ChipsPerRank ||
			f.Bank < 0 || f.Bank >= topo.BanksPerRank {
			t.Fatalf("fault out of bounds: %+v", f)
		}
		if f.Time <= 0 || f.Time > 7*HoursPerYear {
			t.Fatalf("fault time out of range: %v", f.Time)
		}
	}
}

func TestAffectedBanks(t *testing.T) {
	topo := PaperTopology(8)
	bank := Fault{Type: FaultBank, Channel: 1, Rank: 2, Bank: 3}
	if got := bank.AffectedBanks(topo); len(got) != 1 || got[0] != (BankID{1, 2, 3}) {
		t.Fatalf("bank fault affected %v", got)
	}
	mb := Fault{Type: FaultMultiBank, Channel: 0, Rank: 0, Bank: 5}
	if got := mb.AffectedBanks(topo); len(got) != 4 {
		t.Fatalf("multi-bank fault affected %d banks, want 4", len(got))
	}
	mr := Fault{Type: FaultMultiRank, Channel: 0, Rank: 3, Bank: 0}
	got := mr.AffectedBanks(topo)
	if len(got) != 16 {
		t.Fatalf("multi-rank fault affected %d banks, want 16", len(got))
	}
	for _, b := range got {
		if b.Rank != 3 && b.Rank != 0 { // rank 3 wraps to rank 0
			t.Fatalf("multi-rank affected unexpected rank %d", b.Rank)
		}
	}
	small := Fault{Type: FaultRow}
	if got := small.AffectedBanks(topo); got != nil {
		t.Fatalf("row fault must not mark banks, got %v", got)
	}
}

func TestPairID(t *testing.T) {
	if (BankID{0, 0, 5}).PairID() != (BankID{0, 0, 4}) {
		t.Fatal("bank 5 pairs with 4")
	}
	if (BankID{0, 0, 4}).PairID() != (BankID{0, 0, 4}) {
		t.Fatal("bank 4 is its own pair head")
	}
}

func TestMeanTimeBetweenChannelFaultsAnalytic(t *testing.T) {
	topo := PaperTopology(8)
	// At 44 FIT/chip: λ = 44e-9·288 per hour; mean gap to a fault in a
	// different channel = 1/(λ·7/8).
	got := MeanTimeBetweenChannelFaults(44, topo)
	want := 1 / (44e-9 * 288 * 7 / 8)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
	// Inverse proportionality in the FIT rate (Fig. 2's shape).
	if r := MeanTimeBetweenChannelFaults(22, topo) / got; math.Abs(r-2) > 1e-9 {
		t.Fatalf("halving FIT must double the gap, ratio %v", r)
	}
}

func TestMonteCarloMatchesAnalyticGap(t *testing.T) {
	topo := PaperTopology(8)
	fit := 2000.0 // inflated rate so trials are cheap
	want := MeanTimeBetweenChannelFaults(fit, topo)
	got := measureGaps(t, fit, topo, 60, 99, 1)
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("MC gap %v, analytic %v", got, want)
	}
}

func TestProbMultiChannelWindowPaperPoint(t *testing.T) {
	// §VI-C: eight-hour window, 100 FIT/chip, 7 years → ≈0.0002.
	topo := PaperTopology(8)
	got := ProbMultiChannelInWindow(100, topo, 8, 7*HoursPerYear)
	if got < 1.0e-4 || got > 3.0e-4 {
		t.Fatalf("P = %v, want ≈2e-4 (paper)", got)
	}
}

func TestProbMultiChannelWindowMonotonic(t *testing.T) {
	topo := PaperTopology(8)
	f := func(rawW, rawF uint8) bool {
		w := 1 + float64(rawW%100)
		fit := 10 + float64(rawF%200)
		p1 := ProbMultiChannelInWindow(fit, topo, w, 7*HoursPerYear)
		p2 := ProbMultiChannelInWindow(fit, topo, 2*w, 7*HoursPerYear)
		p3 := ProbMultiChannelInWindow(2*fit, topo, w, 7*HoursPerYear)
		return p2 >= p1 && p3 >= p1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateEOLPaperRange(t *testing.T) {
	// Fig. 8: about 0.4% of memory on average ends up with correction bits
	// after seven years for the paper's topology and rates.
	topo := PaperTopology(8)
	res := simulateEOL(t, topo, 4000, 11, 0)
	if res.MeanFraction < 0.001 || res.MeanFraction > 0.012 {
		t.Fatalf("mean EOL fraction %v, expected order of 0.4%%", res.MeanFraction)
	}
	if res.P999Fraction < res.MeanFraction {
		t.Fatal("99.9th percentile below mean")
	}
	if len(res.Fractions) != 4000 {
		t.Fatal("missing per-trial fractions")
	}
}

func TestSimulateEOLMoreChannelsMoreAbsoluteFaults(t *testing.T) {
	// The FRACTION marked stays roughly flat across channel counts (each
	// channel adds both faults and capacity); check it doesn't blow up.
	r2 := simulateEOL(t, PaperTopology(2), 2000, 3, 0)
	r16 := simulateEOL(t, PaperTopology(16), 2000, 3, 0)
	if r16.MeanFraction > 5*r2.MeanFraction+0.01 {
		t.Fatalf("fraction not stable: 2ch=%v 16ch=%v", r2.MeanFraction, r16.MeanFraction)
	}
}

// TestSimulateEOLWorkerCountInvariance is the determinism regression test:
// the same campaign seed must produce bit-identical results whether trials
// run serially or spread over many goroutines.
func TestSimulateEOLWorkerCountInvariance(t *testing.T) {
	topo := PaperTopology(8)
	serial := simulateEOL(t, topo, 600, 11, 1)
	wide := simulateEOL(t, topo, 600, 11, 8)
	if serial.MeanFraction != wide.MeanFraction || serial.P999Fraction != wide.P999Fraction {
		t.Fatalf("workers=1 (%v/%v) diverged from workers=8 (%v/%v)",
			serial.MeanFraction, serial.P999Fraction, wide.MeanFraction, wide.P999Fraction)
	}
	for i := range serial.Fractions {
		if serial.Fractions[i] != wide.Fractions[i] {
			t.Fatalf("per-trial fraction %d diverged: %v vs %v", i, serial.Fractions[i], wide.Fractions[i])
		}
	}
}

func TestMeasureChannelFaultGapsWorkerCountInvariance(t *testing.T) {
	topo := PaperTopology(8)
	serial := measureGaps(t, 2000, topo, 30, 99, 1)
	wide := measureGaps(t, 2000, topo, 30, 99, 8)
	if serial != wide {
		t.Fatalf("workers=1 gap %v diverged from workers=8 gap %v", serial, wide)
	}
}

func TestTrialSeedsDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := TrialSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
}

func TestHPCStallFraction(t *testing.T) {
	// §VI-B: the paper estimates 0.35% for 2PB/128GB-nodes/1GB-s NICs.
	// Our fault mix differs slightly; require the same order of magnitude.
	got := DefaultHPCConfig().StallFraction()
	if got < 0.0005 || got > 0.02 {
		t.Fatalf("stall fraction %v, want order of 0.35%%", got)
	}
}

func TestCounterSRAMBytes(t *testing.T) {
	// §III-E: 512B for a 512GB system with 1024 banks.
	if got := CounterSRAMBytes(1024); got != 256 {
		// 1024 banks = 512 pairs × 0.5B = 256B; the paper says 512B for
		// 1024 banks at 0.5B per pair — i.e. it counts 1024 PAIRS. Accept
		// the paper's own arithmetic by checking pairs→bytes directly.
		t.Fatalf("CounterSRAMBytes(1024) = %d, want 256 (0.5B per pair)", got)
	}
}

func TestMaxRetiredPages(t *testing.T) {
	// §III-E: threshold 4 in an N-channel system retires ≤ 4·(N−1) pages.
	if got := MaxRetiredPages(4, 8); got != 28 {
		t.Fatalf("got %d want 28", got)
	}
}

func TestUndetectedErrorYears(t *testing.T) {
	// §VI-D: once per ~300,000 years for an eight-channel system.
	got := UndetectedErrorYears(PaperTopology(8), DefaultRates(), 4)
	if got < 3e4 || got > 3e7 {
		t.Fatalf("undetected-error interval %v years, want order of 3e5", got)
	}
}

// simulateEOL runs an uncanceled seven-year SimulateEOLContext campaign
// over the default rates.
func simulateEOL(t *testing.T, topo Topology, trials int, seed int64, workers int) EOLResult {
	t.Helper()
	res, err := SimulateEOLContext(context.Background(), topo, DefaultRates(), 7*HoursPerYear, trials, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// measureGaps runs an uncanceled MeasureChannelFaultGapsContext campaign.
func measureGaps(t *testing.T, fit float64, topo Topology, trials int, seed int64, workers int) float64 {
	t.Helper()
	v, err := MeasureChannelFaultGapsContext(context.Background(), fit, topo, trials, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRunTrialsOrderAcrossChunks: per-trial values come back in trial
// order at any worker count, including a partial last chunk.
func TestRunTrialsOrderAcrossChunks(t *testing.T) {
	for _, trials := range []int{0, 1, trialChunk, 2*trialChunk + 7} {
		for _, workers := range []int{1, 3} {
			got, err := runTrials(context.Background(), trials, workers, func(i int) int { return i * i })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != trials {
				t.Fatalf("trials=%d workers=%d: %d values", trials, workers, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("trials=%d workers=%d: value %d = %d, want %d", trials, workers, i, v, i*i)
				}
			}
		}
	}
}

// TestRunTrialsStopsBetweenTrials: a cancel inside a chunk stops the
// campaign at the next trial, and a panicking trial comes back as the
// campaign's error instead of being re-raised.
func TestRunTrialsStopsBetweenTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := runTrials(ctx, 4*trialChunk, 1, func(i int) int {
		ran++
		if i == 5 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) || ran != 6 {
		t.Fatalf("err = %v after %d trials, want context.Canceled after 6", err, ran)
	}
	_, err = runTrials(context.Background(), 100, 2, func(i int) int {
		if i == 70 {
			panic("kaboom")
		}
		return i
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: kaboom") {
		t.Fatalf("err = %v, want the captured panic", err)
	}
}
