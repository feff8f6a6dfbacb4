package sim

import (
	"slices"
	"strings"
	"testing"

	"eccparity/internal/ecc"
)

// TestSchemeKeysCoverRegistry: every scheme the ecc registry serves is an
// evaluated configuration, and so are the engine-only parity overlays,
// which the served key list leaves out.
func TestSchemeKeysCoverRegistry(t *testing.T) {
	for _, name := range ecc.Names() {
		if sc, err := SchemeVariant(name, ""); err != nil || sc.Key != name {
			t.Errorf("ecc registry scheme %q: configuration %q, err %v", name, sc.Key, err)
		}
	}
	for _, k := range []string{"lotecc5+parity", "raim+parity"} {
		if sc, err := SchemeVariant(k, ""); err != nil || sc.Key != k {
			t.Errorf("engine-only overlay %q: configuration %q, err %v", k, sc.Key, err)
		}
		if e, _ := ecc.Info(k); !e.EngineOnly || slices.Contains(ecc.Names(), k) {
			t.Errorf("overlay %q: engine-only=%v, want true and absent from the served key list", k, e.EngineOnly)
		}
	}
	if _, err := SchemeVariant("nope", ""); err == nil {
		t.Error("unknown key resolved")
	}
}

// TestEngineSchemeTable pins every engine configuration's display name,
// ECC-maintenance traffic model, ECC-line coverage and on-die overhead —
// the engine-side columns the golden hash covers only for the eight paper
// configurations. ondie+raim18 keeps the parity overlay while standalone
// raim18 keeps dedicated ECC lines.
func TestEngineSchemeTable(t *testing.T) {
	for _, tc := range []struct {
		key, display string
		traffic      ecc.TrafficModel
		linesPerECC  int
		onDie        bool
	}{
		{"chipkill36", "36-device commercial chipkill", ecc.TrafficInline, 0, false},
		{"chipkill18", "18-device commercial chipkill", ecc.TrafficInline, 0, false},
		{"lotecc5", "LOT-ECC5", ecc.TrafficECCLine, 4, false},
		{"lotecc9", "LOT-ECC9", ecc.TrafficECCLine, 8, false},
		{"multiecc", "Multi-ECC", ecc.TrafficECCLine, 16, false},
		{"lotecc5+parity", "LOT-ECC5 + ECC Parity", ecc.TrafficParity, 0, false},
		{"raim", "RAIM", ecc.TrafficInline, 0, false},
		{"raim+parity", "RAIM + ECC Parity", ecc.TrafficParity, 0, false},
		{"doublechipkill", "Double chipkill", ecc.TrafficInline, 0, false},
		{"lotecc5rs", "LOT-ECC5/RS", ecc.TrafficECCLine, 4, false},
		{"raim18", "18-device RAIM", ecc.TrafficECCLine, 2, false},
		{"ondie-sec", "On-die SEC (non-ECC rank)", ecc.TrafficInline, 0, true},
		{"ondie+chipkill", "On-die SEC + chipkill", ecc.TrafficInline, 0, true},
		{"ondie+raim18", "On-die SEC + RAIM18 + ECC Parity", ecc.TrafficParity, 0, true},
	} {
		sc := SchemeByKey(tc.key)
		if sc.Key != tc.key || sc.Display != tc.display || sc.Traffic != tc.traffic ||
			sc.LinesPerECCLine != tc.linesPerECC || (sc.OnDieOverhead > 0) != tc.onDie {
			t.Errorf("%s: got key %q display %q traffic %d lines/ECC %d on-die %v, want %q %d %d %v",
				tc.key, sc.Key, sc.Display, sc.Traffic, sc.LinesPerECCLine, sc.OnDieOverhead,
				tc.display, tc.traffic, tc.linesPerECC, tc.onDie)
		}
	}
}

// TestOnDieSchemesRaiseEPI: the in-array check bits cost dynamic energy —
// an on-die configuration's memConfig chips must burn more per activate
// than the bare chips of a rank-only scheme of the same geometry.
func TestOnDieSchemesRaiseEPI(t *testing.T) {
	for _, key := range []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"} {
		sc := SchemeByKey(key)
		if sc.OnDieOverhead <= 0 {
			t.Errorf("%s: OnDieOverhead = %v, want > 0", key, sc.OnDieOverhead)
		}
		mc := memConfig(sc, QuadEq)
		bare := buildMemConfig(SchemeConfig{Base: sc.Base}, QuadEq)
		if !(mc.Chips[0].ActivateEnergy(mc.Timing) > bare.Chips[0].ActivateEnergy(bare.Timing)) {
			t.Errorf("%s: on-die overhead did not raise activate energy", key)
		}
	}
	if sc := SchemeByKey("chipkill36"); sc.OnDieOverhead != 0 {
		t.Errorf("rank-only scheme carries on-die overhead %v", sc.OnDieOverhead)
	}
}

// TestSchemeVariant: defaults resolve to the shared entry; non-default
// options resolve to one distinct configuration per (key, options) pair,
// sharing the codec instance ecc.Build interns.
func TestSchemeVariant(t *testing.T) {
	def, err := SchemeVariant("ondie+chipkill", "")
	if err != nil {
		t.Fatal(err)
	}
	if def.Key != "ondie+chipkill" || def.Base != SchemeByKey("ondie+chipkill").Base {
		t.Error("default variant must be the shared registry entry")
	}
	opts := `{"passthrough":true}`
	v1, err := SchemeVariant("ondie+chipkill", opts)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := SchemeVariant("ondie+chipkill", opts)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Base != v2.Base {
		t.Error("repeated variant resolution must share the interned instance")
	}
	if v1.Key == def.Key || !strings.Contains(v1.Key, "ondie+chipkill") {
		t.Errorf("variant key %q must be distinct from the default and carry the scheme", v1.Key)
	}
	if v1.OnDieOverhead != def.OnDieOverhead {
		t.Error("passthrough still stores check bits: energy overhead must match the default")
	}
	od, ok := v1.Base.(*ecc.OnDie)
	if !ok || !od.Passthrough() {
		t.Fatalf("variant base = %T, want passthrough *ecc.OnDie", v1.Base)
	}
	if _, err := SchemeVariant("nope", ""); err == nil {
		t.Error("unknown scheme accepted")
	}
	for _, key := range []string{"chipkill36", "lotecc5+parity"} {
		if _, err := SchemeVariant(key, opts); err == nil || !strings.Contains(err.Error(), "accepts no options") {
			t.Errorf("%s: options on an optionless scheme: err %v, want \"accepts no options\"", key, err)
		}
	}
	if _, err := SchemeVariant("ondie-sec", `{"bogus":1}`); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestNewSchemesRun: each newly registered configuration drives a short
// full-system run end to end.
func TestNewSchemesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	for _, key := range []string{"doublechipkill", "lotecc5rs", "raim18", "ondie-sec", "ondie+chipkill", "ondie+raim18"} {
		r := Run(fastCfg(key, QuadEq, "lbm"))
		if r.Instructions == 0 || r.EPI <= 0 {
			t.Errorf("%s: degenerate run: %+v", key, r)
		}
	}
}
