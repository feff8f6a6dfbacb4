package sim

import (
	"context"
	"fmt"
	"sync"

	"eccparity/internal/cache"
	"eccparity/internal/cpu"
	"eccparity/internal/dram"
	"eccparity/internal/ecc"
	"eccparity/internal/mem"
	"eccparity/internal/workload"
)

// Arena owns the pooled mutable tier of one simulation engine: the memory
// controller (bank/bus rings, rank activity windows), the LLC array, the
// core models, live workload generators, the in-flight prefetch table, and
// the measure loop's heap scratch. Running a point through an Arena resets
// these structures in place instead of reallocating them, so a sweep of N
// points pays the engine's allocation cost once per worker rather than
// once per point. The immutable tier — scheme tables, controller-config
// prototypes, address mappers — is process-wide and shared by every Arena
// (see config.go).
//
// Reuse never changes results: every reset restores the exact
// post-construction state a fresh engine would start from (the in-flight
// table even shrinks back to its initial capacity, because its pruning
// behaviour is capacity-dependent), so a run through a used Arena is
// byte-identical to a run through a fresh one. The cross-scheme
// interleaving test in arena_test.go and the golden CLI test pin this.
//
// An Arena is not safe for concurrent use; give each worker its own.
type Arena struct {
	e engine
	// genPool keeps the concrete live-workload generators across points so
	// a new point reseeds them instead of reallocating generator + RNG.
	genPool []*workload.Generator
	// ready marks that e holds components from a previous prepare (the
	// zero Arena must not try to reset nil structures).
	ready bool
}

// NewArena returns an empty Arena; the first run populates it.
func NewArena() *Arena { return &Arena{} }

// RunContext executes one simulation point exactly like the package-level
// RunContext — same determinism, same cancellation checkpoints — reusing
// the Arena's pooled engine state.
func (a *Arena) RunContext(ctx context.Context, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := a.prepare(cfg)
	if err := e.warmup(ctx); err != nil {
		return Result{}, err
	}
	if err := e.measure(ctx); err != nil {
		return Result{}, err
	}
	return e.collect(), nil
}

// prepare configures the arena's engine for one run, reusing every
// component whose shape still matches and rebuilding the ones that don't.
func (a *Arena) prepare(cfg Config) *engine {
	if cfg.Sources != nil && len(cfg.Sources) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d sources for %d cores", len(cfg.Sources), cfg.Cores))
	}
	mc := memConfig(cfg.Scheme, cfg.Class)
	if cfg.PowerDownThreshold > 0 {
		mc.PowerDownThreshold = cfg.PowerDownThreshold
	}
	if cfg.SpeedBinFactor > 0 && cfg.SpeedBinFactor != 1 {
		// mc.Chips aliases the shared prototype: copy before rebinning.
		chips := append([]dram.Chip(nil), mc.Chips...)
		for i := range chips {
			chips[i], mc.Timing = dram.SpeedBin(chips[i], dram.DDR3Timing1GHz(), cfg.SpeedBinFactor)
		}
		mc.Chips = chips
	}
	mc.OpenPage = cfg.OpenPage
	g := cfg.Scheme.Base.Geometry()

	e := &a.e
	prev := e.cfg
	reuse := a.ready
	a.ready = true

	e.cfg = cfg
	e.mapper = mapperFor(mc.Channels, mc.RanksPerChannel, mc.BanksPerRank, g.LineSize, cfg.OpenPage)
	e.channels = mc.Channels
	e.r = ecc.R(cfg.Scheme.Base)
	e.line = g.LineSize
	e.warm = false

	if reuse {
		e.ctrl.Reset(mc)
	} else {
		e.ctrl = mem.NewController(mc)
	}

	sameLLC := reuse && prev.LLCBytes == cfg.LLCBytes && prev.LLCWays == cfg.LLCWays &&
		prev.Scheme.Base.Geometry().LineSize == g.LineSize
	if sameLLC {
		e.llc.Reset()
	} else {
		e.llc = cache.New(cfg.LLCBytes, cfg.LLCWays, g.LineSize)
	}

	if reuse && len(e.cores) == cfg.Cores {
		for _, c := range e.cores {
			c.Reset(cpu.DefaultParams())
		}
	} else {
		e.cores = make([]*cpu.Core, cfg.Cores)
		for i := range e.cores {
			e.cores[i] = cpu.New(cpu.DefaultParams())
		}
	}

	if len(e.gens) != cfg.Cores {
		e.gens = make([]workload.Source, cfg.Cores)
	}
	if cfg.Sources != nil {
		copy(e.gens, cfg.Sources)
	} else {
		for len(a.genPool) < cfg.Cores {
			a.genPool = append(a.genPool, nil)
		}
		for i := 0; i < cfg.Cores; i++ {
			if a.genPool[i] == nil {
				a.genPool[i] = workload.NewGenerator(cfg.Workload, i, cfg.Seed)
			} else {
				a.genPool[i].Reset(cfg.Workload, i, cfg.Seed)
			}
			e.gens[i] = a.genPool[i]
		}
	}

	if len(e.lastMiss) == cfg.Cores {
		clear(e.lastMiss)
	} else {
		e.lastMiss = make([]uint64, cfg.Cores)
	}

	if e.inflight == nil {
		e.inflight = newAddrTable()
	} else {
		e.inflight.reset()
	}

	if e.vq == nil {
		e.vq = make([]cache.Evicted, 0, 16)
	} else {
		e.vq = e.vq[:0]
	}

	banks := mc.RanksPerChannel * mc.BanksPerRank
	if len(e.marked) == mc.Channels && (mc.Channels == 0 || len(e.marked[0]) == banks) {
		for ch := range e.marked {
			clear(e.marked[ch])
		}
	} else {
		e.marked = make([][]bool, mc.Channels)
		for ch := range e.marked {
			e.marked[ch] = make([]bool, banks)
		}
	}
	total := mc.Channels * banks
	quota := int(cfg.MarkedBankFraction*float64(total) + 0.5)
	// Round up to whole pairs.
	quota = (quota + 1) &^ 1
	for i := 0; i < quota; i++ {
		ch := i % mc.Channels
		idx := (i / mc.Channels) % banks
		e.marked[ch][idx] = true
	}
	return e
}

// arenaPool backs the package-level RunContext entry point, so even
// callers that never touch the Arena API (the grid runners' worker cells,
// single-job daemon computes) reuse engine state across runs on the same
// goroutine-processor.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}
