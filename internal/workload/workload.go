// Package workload provides synthetic memory-access generators standing in
// for the paper's 12 multiprogrammed SPEC CPU2006 and 4 multithreaded
// PARSEC workloads. Each generator is parameterized along the axes that
// drive every result in the evaluation: post-L1 access rate (APKI),
// working-set size, spatial locality (sequential-run probability), and
// write fraction. Parameters are calibrated so the relative bandwidth
// ordering matches Fig. 9 and so the paper's Bin1 (lower-bandwidth) /
// Bin2 (higher-bandwidth) split is preserved.
package workload

import (
	"math/rand"
	"sort"
)

// Spec declares one benchmark's memory behaviour.
type Spec struct {
	Name string
	// APKI is LLC-side (post-L1) accesses per kilo-instruction.
	APKI float64
	// WorkingSetBytes is the per-instance resident set touched by the
	// generator.
	WorkingSetBytes uint64
	// Seq is the probability that an access continues a sequential run —
	// the spatial-locality knob that decides who benefits from 128B lines.
	Seq float64
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	// Parsec marks the multithreaded (shared-address-space) workloads.
	Parsec bool
	// Bin2 marks the paper's higher-memory-access-rate bin.
	Bin2 bool
}

const mb = 1 << 20

// Specs returns the 16 evaluated workloads. SPEC entries model eight
// instances of the same benchmark (one per core, disjoint address spaces);
// PARSEC entries model eight threads sharing one space.
func Specs() []Spec {
	return []Spec{
		// SPEC CPU2006-like, Bin2 (memory-intensive).
		{Name: "mcf", APKI: 17, WorkingSetBytes: 256 * mb, Seq: 0.10, WriteFrac: 0.25, Bin2: true},
		{Name: "lbm", APKI: 21, WorkingSetBytes: 384 * mb, Seq: 0.85, WriteFrac: 0.45, Bin2: true},
		{Name: "libquantum", APKI: 28, WorkingSetBytes: 64 * mb, Seq: 0.95, WriteFrac: 0.30, Bin2: true},
		{Name: "milc", APKI: 18, WorkingSetBytes: 128 * mb, Seq: 0.60, WriteFrac: 0.35, Bin2: true},
		{Name: "GemsFDTD", APKI: 20, WorkingSetBytes: 256 * mb, Seq: 0.75, WriteFrac: 0.35, Bin2: true},
		{Name: "soplex", APKI: 18, WorkingSetBytes: 96 * mb, Seq: 0.55, WriteFrac: 0.30, Bin2: true},
		{Name: "leslie3d", APKI: 16, WorkingSetBytes: 128 * mb, Seq: 0.70, WriteFrac: 0.35, Bin2: true},
		// SPEC CPU2006-like, Bin1.
		{Name: "sphinx3", APKI: 14, WorkingSetBytes: 64 * mb, Seq: 0.50, WriteFrac: 0.15},
		{Name: "omnetpp", APKI: 12, WorkingSetBytes: 128 * mb, Seq: 0.20, WriteFrac: 0.35},
		{Name: "astar", APKI: 8, WorkingSetBytes: 32 * mb, Seq: 0.30, WriteFrac: 0.25},
		{Name: "gobmk", APKI: 3, WorkingSetBytes: 16 * mb, Seq: 0.40, WriteFrac: 0.30},
		{Name: "sjeng", APKI: 2, WorkingSetBytes: 12 * mb, Seq: 0.30, WriteFrac: 0.30},
		// PARSEC-like.
		{Name: "streamcluster", APKI: 20, WorkingSetBytes: 128 * mb, Seq: 0.97, WriteFrac: 0.20, Parsec: true, Bin2: true},
		{Name: "canneal", APKI: 12, WorkingSetBytes: 256 * mb, Seq: 0.15, WriteFrac: 0.20, Parsec: true},
		{Name: "facesim", APKI: 10, WorkingSetBytes: 96 * mb, Seq: 0.65, WriteFrac: 0.40, Parsec: true},
		{Name: "ferret", APKI: 6, WorkingSetBytes: 48 * mb, Seq: 0.50, WriteFrac: 0.30, Parsec: true},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists all workloads in declaration order.
func Names() []string {
	specs := Specs()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// Bin1Names and Bin2Names return the paper's bandwidth bins, sorted.
func Bin1Names() []string { return binNames(false) }

// Bin2Names returns the higher-bandwidth bin.
func Bin2Names() []string { return binNames(true) }

func binNames(bin2 bool) []string {
	var out []string
	for _, s := range Specs() {
		if s.Bin2 == bin2 {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Access is one memory operation emitted by a generator.
type Access struct {
	// InstrGap is the number of instructions executed since the previous
	// access (the compute between memory operations).
	InstrGap int
	// Addr is a byte address at 64B granularity within the generator's
	// address space.
	Addr uint64
	// Write marks stores.
	Write bool
}

// LineBytes is the generator's addressing granularity (one L1 block).
const LineBytes = 64

// Generator produces a deterministic access stream for one core.
type Generator struct {
	spec    Spec
	rng     *rand.Rand
	base    uint64 // address-space offset of this instance
	lines   uint64 // working-set size in 64B lines
	cur     uint64 // current line within the working set
	meanGap float64
}

// NewGenerator builds the stream for one core. SPEC instances get disjoint
// address spaces (base separated per core); PARSEC threads share base 0 and
// interleave over a common working set.
func NewGenerator(spec Spec, core int, seed int64) *Generator {
	g := &Generator{rng: rand.New(rand.NewSource(0))}
	g.Reset(spec, core, seed)
	return g
}

// Reset re-initializes the generator in place to the exact state
// NewGenerator(spec, core, seed) would produce, re-seeding the existing
// random source instead of allocating a new one. It is how the engine
// arena (internal/sim) reuses generators across runs without changing the
// emitted stream.
func (g *Generator) Reset(spec Spec, core int, seed int64) {
	base := uint64(0)
	if !spec.Parsec {
		// Disjoint 1GB-aligned spaces per instance.
		base = uint64(core) << 30
	}
	lines := spec.WorkingSetBytes / LineBytes
	if lines == 0 {
		lines = 1
	}
	g.spec = spec
	g.rng.Seed(seed ^ int64(core)*1000003)
	g.base = base
	g.lines = lines
	g.meanGap = 1000 / spec.APKI
	g.cur = uint64(g.rng.Int63n(int64(lines)))
}

// Next emits the next access.
func (g *Generator) Next() Access {
	// Exponentially distributed instruction gap with the spec's mean
	// (memoryless compute bursts between accesses).
	gap := int(g.rng.ExpFloat64()*g.meanGap) + 1
	if gap > 100000 {
		gap = 100000
	}
	if g.rng.Float64() < g.spec.Seq {
		// cur < lines always holds, so this is (cur+1) % lines without
		// the division.
		if g.cur++; g.cur == g.lines {
			g.cur = 0
		}
	} else {
		g.cur = uint64(g.rng.Int63n(int64(g.lines)))
	}
	return Access{
		InstrGap: gap,
		Addr:     g.base + g.cur*LineBytes,
		Write:    g.rng.Float64() < g.spec.WriteFrac,
	}
}
