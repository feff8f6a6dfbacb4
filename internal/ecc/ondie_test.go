package ecc

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"eccparity/internal/dram"
)

// TestRegistrySharing: the registry is built once — ByName hands out the
// same shared instance on every call, and the name slice Names returns is
// a caller-owned copy.
func TestRegistrySharing(t *testing.T) {
	for _, name := range Names() {
		if ByName(name) != ByName(name) {
			t.Errorf("ByName(%q) allocated a fresh scheme per call", name)
		}
	}
	names := Names()
	names[0] = "mutated"
	if Names()[0] == "mutated" {
		t.Error("mutating the slice Names() returned leaked into the registry")
	}
}

// TestRegistryEntries: Entries is sorted, complete, serves no engine-only
// entry, and documents the passthrough option exactly on the on-die
// schemes.
func TestRegistryEntries(t *testing.T) {
	entries := Entries()
	if len(entries) != len(Names()) {
		t.Fatalf("Entries has %d rows, registry has %d names", len(entries), len(Names()))
	}
	for i, e := range entries {
		if e.Key != Names()[i] {
			t.Errorf("entry %d: key %q out of order (want %q)", i, e.Key, Names()[i])
		}
		if e.Description == "" || e.Display == "" || e.EngineOnly {
			t.Errorf("entry %q: description %q display %q engine-only %v", e.Key, e.Description, e.Display, e.EngineOnly)
		}
		wantOpts := strings.HasPrefix(e.Key, "ondie")
		if gotOpts := len(e.Options) > 0; gotOpts != wantOpts {
			t.Errorf("entry %q: options declared = %v, want %v", e.Key, gotOpts, wantOpts)
		}
		if _, ok := Info(e.Key); !ok {
			t.Errorf("Info(%q) not found", e.Key)
		}
	}
	if _, ok := Info("nope"); ok {
		t.Error("Info of unknown scheme should report !ok")
	}
}

// TestCanonicalOptions: equivalent payloads canonicalize identically,
// defaults canonicalize to the empty string, and invalid payloads —
// unknown fields, trailing data, options on an optionless scheme, unknown
// scheme — are rejected.
func TestCanonicalOptions(t *testing.T) {
	for _, raw := range []string{"", "{}", `{"passthrough":false}`, " {\n} "} {
		got, err := CanonicalOptions("ondie-sec", []byte(raw))
		if err != nil || got != "" {
			t.Errorf("default payload %q: got (%q, %v), want (\"\", nil)", raw, got, err)
		}
	}
	for _, raw := range []string{`{"passthrough":true}`, `{ "passthrough" : true }`} {
		got, err := CanonicalOptions("ondie+chipkill", []byte(raw))
		if err != nil || got != `{"passthrough":true}` {
			t.Errorf("payload %q: got (%q, %v)", raw, got, err)
		}
	}
	for name, raw := range map[string]string{
		"unknown field":     `{"bogus":1}`,
		"trailing data":     `{} {}`,
		"not an object":     `[1,2]`,
		"undeclared option": `{"passthrough":true}`,
	} {
		scheme := "ondie-sec"
		if name == "undeclared option" {
			scheme = "chipkill36" // accepts no options
		}
		if _, err := CanonicalOptions(scheme, []byte(raw)); err == nil {
			t.Errorf("%s: %q accepted", name, raw)
		}
	}
	if _, err := CanonicalOptions("nope", nil); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestBuild: the default configuration is the shared instance; a
// parameterized build is a distinct instance carrying the option, interned
// so that every build of the same configuration — however its options are
// spelled — shares it.
func TestBuild(t *testing.T) {
	s, err := Build("ondie+raim18", "")
	if err != nil {
		t.Fatal(err)
	}
	if s != ByName("ondie+raim18") {
		t.Error("default Build should return the shared instance")
	}
	p, err := Build("ondie+raim18", `{"passthrough":true}`)
	if err != nil {
		t.Fatal(err)
	}
	od, ok := p.(*OnDie)
	if !ok || !od.Passthrough() {
		t.Fatalf("parameterized Build: got %T passthrough=%v", p, ok && od.Passthrough())
	}
	if p == s {
		t.Error("parameterized Build must not alias the shared default")
	}
	for _, opts := range []string{`{"passthrough":true}`, `{ "passthrough" : true }`} {
		if again, err := Build("ondie+raim18", opts); err != nil || again != p {
			t.Errorf("Build(%q) = (%p, %v), want the interned variant %p", opts, again, err, p)
		}
	}
	if _, err := Build("chipkill36", `{"passthrough":true}`); err == nil {
		t.Error("options on an optionless scheme accepted")
	}
	if _, err := Build("nope", ""); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestOnDieScrubObservesSingleBit: a single-bit fault is repaired in
// place by the chip's corrector and reported via Scrub — the window the
// fault-injection experiments use — while Detect stays clean.
func TestOnDieScrubObservesSingleBit(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, name := range []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"} {
		t.Run(name, func(t *testing.T) {
			s := ByName(name)
			type scrubber interface {
				Scrub(*Codeword) []dram.ScrubResult
			}
			d := randLine(r, s)
			clean, _ := s.Encode(d)
			cw := clean.Clone()
			chip := r.Intn(len(cw.Shards))
			bit := r.Intn(8 * len(cw.Shards[chip]))
			cw.Shards[chip][bit/8] ^= 1 << uint(bit%8)
			if res := s.Detect(cw.Clone()); res.ErrorDetected {
				t.Fatal("single-bit fault must be invisible to Detect")
			}
			res := s.(scrubber).Scrub(cw)
			for i, sr := range res {
				want := dram.ScrubClean
				if i == chip {
					want = dram.ScrubCorrected
				}
				if sr.Outcome != want {
					t.Fatalf("chip %d outcome %v, want %v", i, sr.Outcome, want)
				}
			}
			for i := range cw.Shards {
				if !bytes.Equal(cw.Shards[i], clean.Shards[i]) {
					t.Fatalf("scrub did not restore chip %d in place", i)
				}
			}
		})
	}
}

// TestOnDieCompositeChipKill: the cross-layer schemes correct a whole-chip
// failure on any shard — data, rank-check, or detection — because the
// rank-level code underneath is chip-kill correct regardless of what the
// dead chip's on-die corrector does to garbage.
func TestOnDieCompositeChipKill(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, name := range []string{"ondie+chipkill", "ondie+raim18"} {
		t.Run(name, func(t *testing.T) {
			s := ByName(name)
			for trial := 0; trial < 25; trial++ {
				d := randLine(r, s)
				cw, corr := s.Encode(d)
				chip := r.Intn(len(cw.Shards))
				r.Read(cw.Shards[chip])
				got, _, err := s.Correct(cw, corr)
				if err != nil {
					t.Fatalf("trial %d chip %d: %v", trial, chip, err)
				}
				if !bytes.Equal(got, d) {
					t.Fatalf("trial %d chip %d: wrong data", trial, chip)
				}
			}
		})
	}
}

// TestOnDieRAIM18GroupKill: ondie+raim18 survives a whole RAIM group
// (channel) failure — every chip of one group killed at once — via the
// rank's P/Q erasure decode, the paper's channel-kill scenario.
func TestOnDieRAIM18GroupKill(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	s := ByName("ondie+raim18")
	for trial := 0; trial < 25; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		group := r.Intn(len(cw.Shards) - 1) // any data group; shard 4 is detection
		r.Read(cw.Shards[group])
		if res := s.Detect(cw.Clone()); !res.ErrorDetected {
			t.Fatalf("trial %d: dead group %d not detected", trial, group)
		}
		got, rep, err := s.Correct(cw, corr)
		if err != nil {
			t.Fatalf("trial %d group %d: %v", trial, group, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("trial %d group %d: wrong data", trial, group)
		}
		if rep == nil || len(rep.CorrectedChips) == 0 {
			t.Fatalf("trial %d: erasure correction not reported", trial)
		}
	}
}

// TestOnDieOnlyChipKill: the bare on-die rank has no inter-chip code — a
// dead chip is either flagged uncorrectable or silently miscorrected, but
// never silently returned as the true data.
func TestOnDieOnlyChipKill(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	s := ByName("ondie-sec")
	flagged, silent := 0, 0
	for trial := 0; trial < 100; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		chip := r.Intn(len(cw.Shards))
		orig := append([]byte(nil), cw.Shards[chip]...)
		r.Read(cw.Shards[chip])
		if bytes.Equal(cw.Shards[chip], orig) {
			continue
		}
		got, _, err := s.Correct(cw, corr)
		switch {
		case err != nil:
			flagged++
		case bytes.Equal(got, d):
			t.Fatalf("trial %d: dead chip %d silently decoded to the truth", trial, chip)
		default:
			silent++ // silent data corruption — the scheme's designed weakness
		}
	}
	if flagged == 0 || silent == 0 {
		t.Fatalf("chip-kill campaign should see both detections (%d) and silent corruptions (%d)", flagged, silent)
	}
}

// TestOnDiePassthrough: with the corrector disabled the base scheme sees
// raw array errors — a single-bit fault is detected at rank level and
// Scrub neither reports nor repairs anything.
func TestOnDiePassthrough(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	s, err := Build("ondie+chipkill", `{"passthrough":true}`)
	if err != nil {
		t.Fatal(err)
	}
	od := s.(*OnDie)
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	cw.Shards[5][2] ^= 0x08
	before := cw.Clone()
	res := od.Scrub(cw)
	for i, sr := range res {
		if sr.Outcome != dram.ScrubClean {
			t.Fatalf("passthrough scrub reported chip %d as %v", i, sr.Outcome)
		}
	}
	for i := range cw.Shards {
		if !bytes.Equal(cw.Shards[i], before.Shards[i]) {
			t.Fatalf("passthrough scrub mutated chip %d", i)
		}
	}
	if det := s.Detect(cw); !det.ErrorDetected {
		t.Fatal("raw single-bit fault must be visible to the rank-level code under passthrough")
	}
	got, _, err := s.Correct(cw, corr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d) {
		t.Fatal("rank-level code failed to correct the raw fault")
	}
}

// TestOnDieOnlyPassthroughIsNonECC: ondie-sec with passthrough is a plain
// non-ECC rank — a bit flip sails through Detect and Correct undetected.
// This is the profiler's bypass-read configuration, not a bug.
func TestOnDieOnlyPassthroughIsNonECC(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	s, err := Build("ondie-sec", `{"passthrough":true}`)
	if err != nil {
		t.Fatal(err)
	}
	d := randLine(r, s)
	cw, corr := s.Encode(d)
	cw.Shards[0][0] ^= 0x01
	if det := s.Detect(cw); det.ErrorDetected {
		t.Fatal("non-ECC rank cannot detect anything")
	}
	got, _, err := s.Correct(cw, corr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, d) {
		t.Fatal("flip should surface as silent corruption in the returned data")
	}
}

// TestOnDieMiscorrectionConfined: a double-bit fault inside one chip may
// be miscorrected by that chip's SEC code into a third flipped bit, but
// the distortion stays confined to the chip — the chip-kill-correct base
// still recovers the true line.
func TestOnDieMiscorrectionConfined(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	s := ByName("ondie+chipkill").(*OnDie)
	miscorrected := 0
	for trial := 0; trial < 200; trial++ {
		d := randLine(r, s)
		cw, corr := s.Encode(d)
		chip := r.Intn(len(cw.Shards))
		nBits := 8 * len(cw.Shards[chip])
		a, b := r.Intn(nBits), r.Intn(nBits)
		if a == b {
			continue
		}
		cw.Shards[chip][a/8] ^= 1 << uint(a%8)
		cw.Shards[chip][b/8] ^= 1 << uint(b%8)
		if res := s.Scrub(cw.Clone()); res[chip].Outcome == dram.ScrubCorrected {
			miscorrected++
		}
		got, _, err := s.Correct(cw, corr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, d) {
			t.Fatalf("trial %d: distortion escaped chip %d", trial, chip)
		}
	}
	if miscorrected == 0 {
		t.Fatal("double-bit campaign should observe at least one on-die miscorrection")
	}
}
