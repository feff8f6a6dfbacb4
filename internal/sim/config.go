// Package sim assembles the full system simulation: eight workload-driven
// cores (internal/cpu) over a shared LLC (internal/cache) over the
// multi-channel memory controller (internal/mem), with each resilience
// scheme's ECC-maintenance traffic modelled per §IV-C of the paper, and the
// experiment runners that regenerate every evaluation figure.
package sim

import (
	"fmt"
	"sync"

	"eccparity/internal/dram"
	"eccparity/internal/ecc"
	"eccparity/internal/mem"
)

// SystemClass selects one of the two evaluated system sizes (§IV-B):
// systems equivalent in physical bandwidth and size to a dual-channel or a
// quad-channel commercial-ECC memory system.
type SystemClass int

// The two system classes.
const (
	DualEq SystemClass = iota
	QuadEq
)

// String names the class.
func (c SystemClass) String() string {
	if c == DualEq {
		return "dual-equivalent"
	}
	return "quad-equivalent"
}

// SchemeConfig is one evaluated resilience configuration (a Table II
// row): the engine's view of its ecc table entry plus the codec instance
// it drives.
type SchemeConfig struct {
	Key     string
	Display string
	Base    ecc.Scheme
	Traffic ecc.TrafficModel
	// LinesPerECCLine is the data-line coverage of one cached ECC line
	// (ecc.Entry.LinesPerECCLine).
	LinesPerECCLine int
	// OnDieOverhead is the in-array check-bit fraction of schemes with a
	// per-chip on-die code; buildMemConfig scales the chips' dynamic
	// energies by it (dram.Chip.WithOnDieECC). Zero for rank-only schemes.
	OnDieOverhead float64
}

// Channels returns the logical channel count for a system class.
func (s SchemeConfig) Channels(class SystemClass) int {
	g := s.Base.Geometry()
	if class == DualEq {
		return g.ChannelsDualEq
	}
	return g.ChannelsQuadEq
}

// The shared immutable tier of the engine: per-(scheme, class)
// controller-config prototypes and address mappers (pow2 shift tables)
// are built once per process and shared read-only across every engine, as
// are the ecc.Scheme instances ecc.Build interns (with their precomputed
// GF/RS product tables), so a sweep pays the table wiring once instead of
// per run. Everything reachable from these caches is treated as immutable
// after construction — engines copy before mutating (see the arena's
// speed-bin path).
var (
	memCfgMu     sync.Mutex
	memCfgShared = map[memCfgKey]mem.Config{}

	mapperMu     sync.Mutex
	mapperShared = map[mapperKey]*mem.AddressMapper{}
)

type memCfgKey struct {
	scheme string
	class  SystemClass
}

type mapperKey struct {
	channels, ranks, banks, line int
	rowFriendly                  bool
}

// SchemeVariant resolves a scheme key plus constructor options
// (ecc.CanonicalOptions form; "" means defaults) to an evaluated
// configuration built from the key's ecc table entry. The codec instance
// comes from ecc.Build, which interns it per (key, options); a
// non-default variant's Key and Display carry the options string, so the
// memConfig prototype cache keeps one entry per variant.
func SchemeVariant(key, options string) (SchemeConfig, error) {
	e, ok := ecc.Info(key)
	if !ok {
		return SchemeConfig{}, &ConfigError{Field: "scheme", Reason: fmt.Sprintf("unknown scheme %q", key)}
	}
	s, err := ecc.Build(key, options)
	if err != nil {
		return SchemeConfig{}, &ConfigError{Field: "scheme_options", Reason: err.Error()}
	}
	sc := SchemeConfig{Key: e.Key, Display: e.Display, Base: s, Traffic: e.Traffic, LinesPerECCLine: e.LinesPerECCLine}
	if od, ok := s.(interface{ OnDieOverhead() float64 }); ok {
		sc.OnDieOverhead = od.OnDieOverhead()
	}
	if options != "" {
		sc.Key += "?" + options
		sc.Display += " " + options
	}
	return sc, nil
}

// SchemeByKey fetches a default configuration; it panics on unknown keys
// (keys are compile-time constants throughout this repository).
func SchemeByKey(key string) SchemeConfig {
	sc, err := SchemeVariant(key, "")
	if err != nil {
		panic(fmt.Sprintf("sim: unknown scheme %q", key))
	}
	return sc
}

// memConfig returns the controller configuration of a scheme in a class
// from the shared prototype cache. The returned Config is a value copy,
// but its Chips slice is shared: callers that mutate Chips (the speed-bin
// path) must copy it first.
func memConfig(sc SchemeConfig, class SystemClass) mem.Config {
	key := memCfgKey{scheme: sc.Key, class: class}
	memCfgMu.Lock()
	defer memCfgMu.Unlock()
	if mc, ok := memCfgShared[key]; ok && sc.Key != "" {
		return mc
	}
	mc := buildMemConfig(sc, class)
	if sc.Key != "" {
		memCfgShared[key] = mc
	}
	return mc
}

// buildMemConfig constructs a controller configuration from scratch.
func buildMemConfig(sc SchemeConfig, class SystemClass) mem.Config {
	g := sc.Base.Geometry()
	chips := make([]dram.Chip, 0, g.ChipsPerRank())
	widest := dram.X4
	for _, cls := range g.Chips {
		for i := 0; i < cls.Count; i++ {
			chips = append(chips, dram.Chip2GbDDR3(dram.Width(cls.Width)).WithOnDieECC(sc.OnDieOverhead))
		}
		if dram.Width(cls.Width) > widest {
			widest = dram.Width(cls.Width)
		}
	}
	return mem.Config{
		Channels:           sc.Channels(class),
		RanksPerChannel:    g.RanksPerChannel,
		BanksPerRank:       mem.DefaultBanksPerRank,
		Chips:              chips,
		Timing:             dram.TimingForWidth(widest),
		PowerDownThreshold: mem.DefaultPowerDownThreshold,
		LineBytes:          g.LineSize,
	}
}

// mapperFor returns the shared address mapper for a geometry. Mappers are
// immutable after construction (Map is a pure read), so one instance
// serves any number of concurrent engines.
func mapperFor(channels, ranks, banks, line int, rowFriendly bool) *mem.AddressMapper {
	key := mapperKey{channels: channels, ranks: ranks, banks: banks, line: line, rowFriendly: rowFriendly}
	mapperMu.Lock()
	defer mapperMu.Unlock()
	if m, ok := mapperShared[key]; ok {
		return m
	}
	m := mem.NewAddressMapper(channels, ranks, banks, line)
	m.RowBufferFriendly = rowFriendly
	mapperShared[key] = m
	return m
}
