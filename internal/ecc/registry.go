package ecc

// The scheme table: every resilience configuration this repository
// evaluates, keyed by its serving name. An entry pairs a parameterized
// codec constructor with the timing engine's view of the configuration —
// the paper's display name, the ECC-maintenance traffic model and the
// ECC-line coverage — so a configuration is written in exactly one row.
// The table is built once (sync.Once); Build interns every constructed
// instance per (key, options), and Scheme implementations are immutable
// after construction and safe for concurrent use, so repeated lookups
// share the codec tables instead of rebuilding them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// TrafficModel selects the ECC-maintenance traffic flows the timing engine
// models for a scheme (§IV-C).
type TrafficModel int

// Traffic models.
const (
	// TrafficInline: ECC bits live in the accessed rank; no extra requests
	// (commercial chipkill, RAIM).
	TrafficInline TrafficModel = iota
	// TrafficECCLine: tiered schemes storing correction bits in separate
	// memory lines, cached in the LLC; dirty-data evictions update the
	// covering ECC line (fetch on miss, write on eviction) — LOT-ECC,
	// Multi-ECC.
	TrafficECCLine
	// TrafficParity: the ECC Parity overlay; dirty-data evictions update
	// an XOR cacheline (no fetch on miss — it is an accumulator), whose
	// eviction costs a parity-line read plus write (§III-D / Fig. 7).
	TrafficParity
)

// OptionSpec documents one constructor option of a registry entry, in the
// shape GET /v1/schemes serves: a JSON field name, its JSON type, and what
// it does.
type OptionSpec struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Description string `json:"description"`
}

// Options is the decoded form of a scheme's constructor options. One
// struct covers every entry — entries that accept no options reject any
// non-empty payload in CanonicalOptions/Build.
type Options struct {
	// Passthrough disables the on-die corrector of the on-die entries:
	// check bits are stored but never consumed, so the rank-level code
	// sees the raw array error profile (the HARP comparison point).
	Passthrough bool `json:"passthrough,omitempty"`
}

// Entry describes one evaluated configuration (a Table II row).
type Entry struct {
	// Key is the serving name (api scheme field, sweep axis value).
	Key string
	// Display is the configuration's name in the paper's tables and the
	// report headers.
	Display string
	// Description is the one-line summary GET /v1/schemes serves.
	Description string
	// ChipKillCorrect reports whether the scheme corrects any single-chip
	// failure — the capability the generic chip-kill tests gate on (the
	// bare on-die rank cannot).
	ChipKillCorrect bool
	// Traffic is the ECC-maintenance traffic model of the timing engine.
	Traffic TrafficModel
	// LinesPerECCLine is the data-line coverage of one cached ECC line for
	// TrafficECCLine schemes (4 for LOT-ECC5, 8 for LOT-ECC9, 16 for
	// Multi-ECC's compacted T2EC).
	LinesPerECCLine int
	// EngineOnly marks a timing-engine configuration that runs another
	// entry's codec under a different traffic model (the ECC Parity
	// overlays). Names, Entries and GET /v1/schemes omit it, and
	// codec-level experiments reject it.
	EngineOnly bool
	// Options lists the constructor options the entry accepts (empty for
	// fixed schemes).
	Options []OptionSpec

	build func(o Options) Scheme
}

// passthroughOpt is the option schema shared by the on-die entries.
var passthroughOpt = []OptionSpec{{
	Name: "passthrough", Type: "boolean",
	Description: "disable the on-die corrector so the rank-level code sees raw array errors",
}}

var (
	regOnce    sync.Once
	regEntries map[string]*Entry
	regNames   []string // sorted keys of the served (non-engine-only) entries

	instMu    sync.Mutex
	instances = map[instanceKey]Scheme{}
)

// instanceKey identifies one constructed scheme: decoded Options compare
// equal exactly when their canonical encodings do.
type instanceKey struct {
	name string
	o    Options
}

func buildRegistry() {
	entries := []*Entry{
		{Key: "chipkill36", Display: "36-device commercial chipkill",
			Description:     "36-device commercial chipkill correct (32+4 x4, 128B lines)",
			ChipKillCorrect: true, build: func(Options) Scheme { return NewChipkill36() }},
		{Key: "chipkill18", Display: "18-device commercial chipkill",
			Description:     "18-device commercial chipkill correct (16+2 x4, 64B lines)",
			ChipKillCorrect: true, build: func(Options) Scheme { return NewChipkill18() }},
		{Key: "doublechipkill", Display: "Double chipkill",
			Description:     "40-device double-chipkill correct (32+8 x4, 128B lines)",
			ChipKillCorrect: true, build: func(Options) Scheme { return NewDoubleChipkill() }},
		{Key: "lotecc5", Display: "LOT-ECC5",
			Description:     "LOT-ECC with 5 chips per rank (4 x16 + 1 x8, 64B lines)",
			ChipKillCorrect: true, Traffic: TrafficECCLine, LinesPerECCLine: 4,
			build: func(Options) Scheme { return NewLOTECC5() }},
		{Key: "lotecc5+parity", Display: "LOT-ECC5 + ECC Parity",
			ChipKillCorrect: true, Traffic: TrafficParity, EngineOnly: true,
			build: func(Options) Scheme { return NewLOTECC5() }},
		{Key: "lotecc5rs", Display: "LOT-ECC5/RS",
			Description:     "LOT-ECC5 variant with RS second-tier symbols",
			ChipKillCorrect: true, Traffic: TrafficECCLine, LinesPerECCLine: 4,
			build: func(Options) Scheme { return NewLOTECC5RS() }},
		{Key: "lotecc9", Display: "LOT-ECC9",
			Description:     "LOT-ECC with 9 chips per rank (9 x8, 64B lines)",
			ChipKillCorrect: true, Traffic: TrafficECCLine, LinesPerECCLine: 8,
			build: func(Options) Scheme { return NewLOTECC9() }},
		{Key: "multiecc", Display: "Multi-ECC",
			Description:     "Multi-ECC (9 x8, 64B lines, compacted multi-line T2EC)",
			ChipKillCorrect: true, Traffic: TrafficECCLine, LinesPerECCLine: 16,
			build: func(Options) Scheme { return NewMultiECC() }},
		{Key: "raim", Display: "RAIM",
			Description:     "IBM-style RAIM: DIMM-kill correct (45 x4 = 5 DIMMs, 128B lines)",
			ChipKillCorrect: true, build: func(Options) Scheme { return NewRAIM() }},
		{Key: "raim+parity", Display: "RAIM + ECC Parity",
			ChipKillCorrect: true, Traffic: TrafficParity, EngineOnly: true,
			build: func(Options) Scheme { return NewRAIMParity() }},
		// Standalone 18-device RAIM rank: the P/Q group parity lives in
		// dedicated ECC lines (32B per 64B data line -> one ECC line covers
		// two data lines) rather than the ECC Parity overlay.
		{Key: "raim18", Display: "18-device RAIM",
			Description:     "18-device RAIM rank with P/Q group parity (ECC Parity base)",
			ChipKillCorrect: true, Traffic: TrafficECCLine, LinesPerECCLine: 2,
			build: func(Options) Scheme { return NewRAIMParity() }},
		{Key: "ondie-sec", Display: "On-die SEC (non-ECC rank)",
			Description: "bare on-die SEC: non-ECC 8 x8 rank, per-chip Hamming correction only",
			Options:     passthroughOpt,
			build:       func(o Options) Scheme { return NewOnDieOnly(o.Passthrough) }},
		{Key: "ondie+chipkill", Display: "On-die SEC + chipkill",
			Description:     "cross-layer: per-chip on-die SEC under 36-device chipkill correct",
			ChipKillCorrect: true, Options: passthroughOpt,
			build: func(o Options) Scheme { return NewOnDie(NewChipkill36(), o.Passthrough) }},
		{Key: "ondie+raim18", Display: "On-die SEC + RAIM18 + ECC Parity",
			Description:     "cross-layer: per-chip on-die SEC under the 18-device RAIM rank",
			ChipKillCorrect: true, Traffic: TrafficParity, Options: passthroughOpt,
			build: func(o Options) Scheme { return NewOnDie(NewRAIMParity(), o.Passthrough) }},
	}
	regEntries = make(map[string]*Entry, len(entries))
	for _, e := range entries {
		regEntries[e.Key] = e
		if !e.EngineOnly {
			regNames = append(regNames, e.Key)
		}
	}
	sort.Strings(regNames)
}

func reg() map[string]*Entry {
	regOnce.Do(buildRegistry)
	return regEntries
}

// Names returns the served registry keys in deterministic (sorted) order,
// engine-only entries excluded. The slice is a copy; the underlying
// registry is built once per process.
func Names() []string {
	reg()
	return append([]string(nil), regNames...)
}

// ByName returns the shared default instance of the scheme registered
// under name, or nil.
func ByName(name string) Scheme {
	s, _ := Build(name, "") // the only possible error is an unknown name
	return s
}

// Info returns the table entry for a key, engine-only entries included.
func Info(name string) (Entry, bool) {
	e, ok := reg()[name]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Entries returns every served entry in key order, for GET /v1/schemes.
func Entries() []Entry {
	reg()
	out := make([]Entry, 0, len(regNames))
	for _, k := range regNames {
		out = append(out, *regEntries[k])
	}
	return out
}

// decodeOptions parses an options payload strictly: unknown fields are
// rejected, as is any option the entry does not declare.
func decodeOptions(e *Entry, raw []byte) (Options, error) {
	var o Options
	if len(raw) == 0 {
		return o, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return Options{}, fmt.Errorf("ecc: scheme %q options: %w", e.Key, err)
	}
	if dec.More() {
		return Options{}, fmt.Errorf("ecc: scheme %q options: trailing data after JSON object", e.Key)
	}
	if o.Passthrough && len(e.Options) == 0 {
		return Options{}, fmt.Errorf("ecc: scheme %q accepts no options", e.Key)
	}
	return o, nil
}

// CanonicalOptions validates an options payload against a scheme's entry
// and returns its canonical encoding: "" for defaults (nil, "{}", or all
// zero values), a minimal deterministic JSON object otherwise. Two
// payloads meaning the same configuration always canonicalize to the same
// string — the property the result cache's content addressing hashes.
func CanonicalOptions(name string, raw []byte) (string, error) {
	e, ok := reg()[name]
	if !ok {
		return "", fmt.Errorf("ecc: unknown scheme %q", name)
	}
	o, err := decodeOptions(e, raw)
	if err != nil {
		return "", err
	}
	if o == (Options{}) {
		return "", nil
	}
	b, err := json.Marshal(o)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Build returns the scheme registered under name, configured by a
// canonical-or-raw options payload. Every (name, options) configuration
// is constructed once per process and interned, so repeated builds of a
// parameterized variant share one instance and its codec tables.
func Build(name, options string) (Scheme, error) {
	e, ok := reg()[name]
	if !ok {
		return nil, fmt.Errorf("ecc: unknown scheme %q", name)
	}
	o, err := decodeOptions(e, []byte(options))
	if err != nil {
		return nil, err
	}
	k := instanceKey{name: name, o: o}
	instMu.Lock()
	defer instMu.Unlock()
	s, ok := instances[k]
	if !ok {
		s = e.build(o)
		instances[k] = s
	}
	return s, nil
}
