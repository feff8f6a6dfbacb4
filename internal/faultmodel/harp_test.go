package faultmodel

import (
	"context"
	"reflect"
	"testing"
)

func harpCfg(workers int) HarpConfig {
	return HarpConfig{
		Words: 64, AtRiskPerWord: 3, ErrorProb: 0.25,
		Rounds: 12, Trials: 40, Seed: 9, Workers: workers,
	}
}

// profileHarp runs an uncanceled ProfileHarpContext campaign.
func profileHarp(t *testing.T, cfg HarpConfig) HarpResult {
	t.Helper()
	res, err := ProfileHarpContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHarpDeterminism: the campaign is bit-identical at any worker count.
func TestHarpDeterminism(t *testing.T) {
	a := profileHarp(t, harpCfg(1))
	b := profileHarp(t, harpCfg(8))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("harp campaign differs between 1 and 8 workers")
	}
}

// TestHarpCoverage: raw (bypass) profiling dominates active profiling —
// the corrector hides single-bit fires — both curves are monotone
// cumulative fractions, and active reads observe miscorrection artifacts.
func TestHarpCoverage(t *testing.T) {
	res := profileHarp(t, harpCfg(0))
	if len(res.Rounds) != 12 {
		t.Fatalf("got %d rounds", len(res.Rounds))
	}
	prev := HarpRound{}
	for _, r := range res.Rounds {
		if r.RawCoverage < r.ActiveCoverage {
			t.Fatalf("round %d: active coverage %.3f exceeds raw %.3f", r.Round, r.ActiveCoverage, r.RawCoverage)
		}
		if r.RawCoverage < prev.RawCoverage || r.ActiveCoverage < prev.ActiveCoverage {
			t.Fatalf("round %d: coverage regressed", r.Round)
		}
		if r.RawCoverage < 0 || r.RawCoverage > 1 || r.MiscorrectionRate < 0 || r.MiscorrectionRate > 1 {
			t.Fatalf("round %d: out-of-range fractions %+v", r.Round, r)
		}
		prev = r
	}
	final := res.Final()
	if final.RawCoverage < 0.9 {
		t.Errorf("12 rounds at p=0.25 should locate most at-risk bits raw, got %.3f", final.RawCoverage)
	}
	if !(final.RawCoverage > final.ActiveCoverage) {
		t.Errorf("raw profiling should strictly beat active by end of campaign (%.3f vs %.3f)", final.RawCoverage, final.ActiveCoverage)
	}
	if final.MiscorrectionRate == 0 {
		t.Error("multi-bit fires should pollute active observations with miscorrections")
	}
}

// TestHarpValidate: degenerate configs are rejected before any work.
func TestHarpValidate(t *testing.T) {
	base := harpCfg(1)
	for name, mut := range map[string]func(*HarpConfig){
		"words":    func(c *HarpConfig) { c.Words = 0 },
		"atrisk":   func(c *HarpConfig) { c.AtRiskPerWord = 65 },
		"prob":     func(c *HarpConfig) { c.ErrorProb = 0 },
		"probHigh": func(c *HarpConfig) { c.ErrorProb = 1.5 },
		"rounds":   func(c *HarpConfig) { c.Rounds = -1 },
		"trials":   func(c *HarpConfig) { c.Trials = 0 },
	} {
		c := base
		mut(&c)
		if _, err := ProfileHarpContext(context.Background(), c); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestHarpCancel: a canceled context aborts the campaign with its error.
func TestHarpCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileHarpContext(ctx, harpCfg(1)); err == nil {
		t.Fatal("canceled campaign should fail")
	}
}
