package report

import (
	"context"
	"strings"
	"testing"
)

// TestNormalizedFor pins the canonicalization the result cache's content
// addressing depends on: pre-scheme-layer requests keep their identity,
// equivalent scheme selections collapse to one identity, and invalid
// selections are rejected before any work.
func TestNormalizedFor(t *testing.T) {
	base := Params{Trials: 40, Seed: 7}

	// Scheme-blind experiments: identical to the historical normalization.
	got, err := base.NormalizedFor("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if got != base.Normalized() {
		t.Fatalf("fig8: NormalizedFor %+v != Normalized %+v", got, base.Normalized())
	}
	bad := base
	bad.Scheme = "chipkill36"
	if _, err := bad.NormalizedFor("fig8"); err == nil {
		t.Fatal("scheme on a scheme-blind experiment must be rejected")
	}

	// The default selection folds to empty fields, however it is spelled.
	for _, p := range []Params{
		base,
		{Trials: 40, Seed: 7, Scheme: "ondie+chipkill"},
		{Trials: 40, Seed: 7, Scheme: "ondie+chipkill", SchemeOptions: "{}"},
		{Trials: 40, Seed: 7, Scheme: "ondie+chipkill", SchemeOptions: `{"passthrough":false}`},
	} {
		got, err := p.NormalizedFor("faultinject")
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got.Scheme != "" || got.SchemeOptions != "" {
			t.Fatalf("default selection %+v should fold to empty scheme fields, got %+v", p, got)
		}
	}

	// Non-default selections survive with canonical options.
	p := base
	p.Scheme, p.SchemeOptions = "ondie-sec", `{ "passthrough" : true }`
	got, err = p.NormalizedFor("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != "ondie-sec" || got.SchemeOptions != `{"passthrough":true}` {
		t.Fatalf("canonicalization lost the selection: %+v", got)
	}

	// The default scheme with non-default options is NOT the default.
	p = base
	p.Scheme, p.SchemeOptions = "ondie+chipkill", `{"passthrough":true}`
	got, err = p.NormalizedFor("faultinject")
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != "ondie+chipkill" || got.SchemeOptions != `{"passthrough":true}` {
		t.Fatalf("passthrough variant folded away: %+v", got)
	}

	// Engine-only configurations: admitted by schemeeval, not faultinject,
	// and never with options.
	p = base
	p.Scheme = "lotecc5+parity"
	if _, err := p.NormalizedFor("schemeeval"); err != nil {
		t.Fatalf("schemeeval should admit engine-only schemes: %v", err)
	}
	if _, err := p.NormalizedFor("faultinject"); err == nil {
		t.Fatal("faultinject is codec-level: engine-only schemes have no codeword path")
	}
	p.SchemeOptions = `{"passthrough":true}`
	if _, err := p.NormalizedFor("schemeeval"); err == nil {
		t.Fatal("engine-only scheme with options must be rejected")
	}

	// Unknown ids and schemes.
	if _, err := base.NormalizedFor("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	p = base
	p.Scheme = "nope"
	if _, err := p.NormalizedFor("faultinject"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestExpandSweepSchemeAxis: the scheme axis cross-multiplies like every
// other knob, folds the default spelling, and rejects invalid combinations.
func TestExpandSweepSchemeAxis(t *testing.T) {
	base := Params{Trials: 10, Seed: 3}
	axes := SweepAxes{Schemes: []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"}}
	points, err := ExpandSweep("faultinject", base, axes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	wantSchemes := []string{"ondie-sec", "", "ondie+raim18"} // default folds to ""
	for i, pt := range points {
		if pt.Params.Scheme != wantSchemes[i] {
			t.Errorf("point %d: scheme %q, want %q", i, pt.Params.Scheme, wantSchemes[i])
		}
	}

	// Two spellings of the default are one identity — a duplicate.
	if _, err := ExpandSweep("faultinject", base, SweepAxes{Schemes: []string{"ondie+chipkill", ""}}, 0); err == nil {
		t.Fatal("duplicate scheme points must be rejected")
	}
	// A scheme axis cannot apply to a scheme-blind experiment.
	if _, err := ExpandSweep("fig8", base, SweepAxes{Schemes: []string{"chipkill36"}}, 0); err == nil {
		t.Fatal("scheme axis over a scheme-blind experiment must be rejected")
	}
	// Unknown scheme values are rejected at expansion.
	if _, err := ExpandSweep("faultinject", base, SweepAxes{Schemes: []string{"nope"}}, 0); err == nil {
		t.Fatal("unknown scheme in axis must be rejected")
	}
	// The cap counts the scheme axis.
	if _, err := ExpandSweep("faultinject", base, axes, 2); err == nil {
		t.Fatal("cap must count scheme-axis points")
	}
}

// TestServeExperimentsWorkerInvariant extends the cache's determinism
// contract to the scheme-aware experiments: byte-identical text at any
// worker count, and distinct schemes produce distinct results.
func TestServeExperimentsWorkerInvariant(t *testing.T) {
	for _, id := range []string{"faultinject", "harpprofile", "schemeeval"} {
		var texts []string
		for _, workers := range []int{1, 8} {
			p := smallParams
			p.Workers = workers
			rep, err := NewRunner(p, nil).RunContext(context.Background(), id)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			texts = append(texts, rep.Text)
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: text differs between workers=1 and workers=8", id)
		}
		if !strings.Contains(texts[0], "===") {
			t.Errorf("%s: missing header", id)
		}
	}
}

// TestFaultInjectSchemeSelection: the scheme knob actually changes what
// runs — the bare on-die rank leaves chip kills unrecovered while the
// composite corrects them, and passthrough silences the on-die counters.
func TestFaultInjectSchemeSelection(t *testing.T) {
	run := func(scheme, options string) FaultInjectData {
		t.Helper()
		p := smallParams
		p.Scheme, p.SchemeOptions = scheme, options
		rep, err := NewRunner(p, nil).RunContext(context.Background(), "faultinject")
		if err != nil {
			t.Fatal(err)
		}
		return rep.Data.(FaultInjectData)
	}
	rowByName := func(d FaultInjectData, name string) FaultInjectRow {
		for _, r := range d.Rows {
			if r.Pattern == name {
				return r
			}
		}
		t.Fatalf("no %s row", name)
		return FaultInjectRow{}
	}

	composite := run("", "") // default ondie+chipkill
	if kill := rowByName(composite, "chip-kill"); kill.Corrected != kill.Trials {
		t.Errorf("composite should correct every chip kill: %+v", kill)
	}
	if single := rowByName(composite, "single-bit"); single.OnDieCorrected != single.Trials {
		t.Errorf("every single-bit fault should be on-die corrected: %+v", single)
	}

	bare := run("ondie-sec", "")
	if kill := rowByName(bare, "chip-kill"); kill.Uncorrectable+kill.SilentCorruption == 0 {
		t.Errorf("bare on-die rank cannot correct chip kills: %+v", kill)
	}

	bypass := run("ondie+chipkill", `{"passthrough":true}`)
	for _, row := range bypass.Rows {
		if row.OnDieCorrected != 0 {
			t.Errorf("passthrough must silence the on-die counters: %+v", row)
		}
	}
	if kill := rowByName(bypass, "chip-kill"); kill.Corrected != kill.Trials {
		t.Errorf("rank-level code still corrects chip kills under passthrough: %+v", kill)
	}
}
