package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"eccparity/internal/cache"
	"eccparity/internal/core"
	"eccparity/internal/cpu"
	"eccparity/internal/ecc"
	"eccparity/internal/mem"
	"eccparity/internal/workload"
)

// Config drives one simulation run.
type Config struct {
	Scheme   SchemeConfig
	Class    SystemClass
	Workload workload.Spec
	Cores    int
	// WarmupAccesses is the number of LLC-only accesses per core used to
	// reach cache steady state before timing begins (the paper warms the
	// cache for a billion instructions; here the cache is warmed directly).
	WarmupAccesses int
	// MeasureCycles is the timed simulation window (the paper uses 10M
	// cycles; the default here is smaller but statistics converge).
	MeasureCycles float64
	LLCBytes      int
	LLCWays       int
	Seed          int64
	// MarkedBankFraction pre-marks a fraction of bank pairs as faulty,
	// exercising the steady-state Step B/D flows of Fig. 6.
	MarkedBankFraction float64
	// DisableECCCaching turns off the Fig. 7 LLC optimizations: every
	// parity/ECC-line update goes straight to memory as a read-modify-
	// write. Used by the ablation benchmarks.
	DisableECCCaching bool
	// ScrubLineInterval, when nonzero, issues one scrubber read every
	// that many cycles (round-robin over memory), modelling the §III-C
	// periodic scan's bandwidth cost.
	ScrubLineInterval float64
	// PowerDownThreshold, when nonzero, overrides the rank idle-to-sleep
	// threshold (cycles). Used by the sleep-policy ablation.
	PowerDownThreshold float64
	// SpeedBinFactor, when nonzero and ≠1, scales the DRAM frequency per
	// §V-D's faster-speed-bin discussion (1.16 ≈ the paper's example).
	SpeedBinFactor float64
	// Sources, when non-nil, drives each core from the given access
	// stream (e.g. replayed traces) instead of live generators; its
	// length must equal Cores.
	Sources []workload.Source
	// OpenPage switches the controller to the open-page row-buffer policy
	// with a row-buffer-friendly address map (the row-policy ablation; the
	// paper evaluates close-page).
	OpenPage bool
	// Workers bounds the goroutines used by the grid runners
	// (NewEvaluation, Fig9Bandwidth) that fan independent Run calls out
	// over a worker pool; ≤0 means runtime.NumCPU(). A single Run is
	// always sequential, and because every cell's randomness derives only
	// from its own Config, grid results are bit-identical at any setting.
	Workers int
	// ProgressW, when non-nil, receives a done/total ticker line from the
	// grid runners, one step per completed simulation cell (the CLIs pass
	// os.Stderr so stdout stays byte-identical at any worker count).
	ProgressW io.Writer

	// optErr records the first Option that failed to apply (e.g. WithCell
	// with an unknown scheme key); New surfaces it as the validation error.
	optErr error
}

// baseConfig is the standard evaluation budget every entry point starts
// from: the paper's eight cores and 8MB/16-way LLC with the full-fidelity
// cycle/warmup window at seed 1, cell unselected.
func baseConfig() Config {
	return Config{
		Cores:          8,
		WarmupAccesses: 60000,
		MeasureCycles:  400000,
		LLCBytes:       8 << 20,
		LLCWays:        16,
		Seed:           1,
	}
}

// DefaultConfig returns the standard evaluation configuration for one
// scheme/class/workload cell.
func DefaultConfig(schemeKey string, class SystemClass, workloadName string) Config {
	return cellConfig(SchemeByKey(schemeKey), class, workloadName)
}

// cellConfig is the standard evaluation configuration for one resolved
// scheme in a class on a named workload.
func cellConfig(sc SchemeConfig, class SystemClass, workloadName string) Config {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		panic(fmt.Sprintf("sim: unknown workload %q", workloadName))
	}
	cfg := baseConfig()
	cfg.Scheme = sc
	cfg.Class = class
	cfg.Workload = spec
	return cfg
}

// Result is the outcome of one run.
type Result struct {
	SchemeKey    string
	Class        SystemClass
	Workload     string
	Instructions uint64
	Cycles       float64
	IPC          float64

	Mem   mem.Stats
	Cache cache.Stats

	// Derived metrics matching the paper's figures.
	EPI           float64 // memory energy per instruction, pJ (Figs. 10–11)
	DynamicEPI    float64 // Fig. 12
	BackgroundEPI float64 // Fig. 13
	// AccessesPerInstr counts each 64B read or written as one access
	// (Figs. 16–17).
	AccessesPerInstr float64
	// BandwidthUtil is the fraction of peak channel bandwidth used (Fig. 9).
	BandwidthUtil float64
	BandwidthGBs  float64
}

// engine holds one run's live state.
type engine struct {
	cfg      Config
	ctrl     *mem.Controller
	mapper   *mem.AddressMapper
	llc      *cache.Cache
	cores    []*cpu.Core
	gens     []workload.Source
	channels int
	r        float64
	line     int
	marked   [][]bool // [channel][rank*banks+bank]
	warm     bool
	// lastMiss tracks each core's previous demand-miss address for the
	// next-line stream prefetcher.
	lastMiss []uint64
	// inflight maps prefetched line addresses to their fill-completion
	// time: a demand hit before the fill lands pays the residue ("late
	// hit"), which keeps streams latency-sensitive.
	inflight *addrTable
	// vq is the reusable eviction-cascade queue for handleVictim.
	vq []cache.Evicted
	// times and heap are the measure loop's core-selection scratch, kept
	// on the engine so an arena reuses them across runs.
	times []float64
	heap  coreHeap
}

// Run executes one simulation deterministically. It is the uninterruptible
// form of RunContext; prefer New(...).Run for new code.
func Run(cfg Config) Result {
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		panic(err) // Background is never canceled
	}
	return res
}

// ctxCheckEvery is the engine's cancellation checkpoint interval, in
// simulation-loop iterations (must be a power of two). One iteration is one
// memory access plus its cascade — well under a microsecond of host time —
// so a cancel lands within single-digit milliseconds of wall clock, never
// at run end. The poll itself is one branch plus an atomic-ish ctx.Err()
// every 1024 iterations, far below the noise floor of the hot path.
const ctxCheckEvery = 1024

// checkpoint is the engine's periodic stop: it returns ctx's error once ctx
// is canceled, and otherwise yields the processor, so a goroutine that is
// waiting to run (an HTTP handler or client woken while every processor
// computes) waits at most one checkpoint interval instead of a whole run or
// the runtime's 10 ms preemption tick. Yielding reorders no engine work.
func checkpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	runtime.Gosched()
	return nil
}

// RunContext executes one simulation deterministically, polling ctx at a
// bounded checkpoint interval (ctxCheckEvery loop iterations) during both
// warmup and the measured window. A run that completes is byte-identical
// to Run — the checkpoints only observe and yield, never reorder — and a
// canceled run returns ctx's error with a zero Result.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return a.RunContext(ctx, cfg)
}

func (e *engine) warmup(ctx context.Context) error {
	e.warm = true
	for i := 0; i < e.cfg.WarmupAccesses; i++ {
		// Each outer iteration issues one access per core, so this polls at
		// least every ctxCheckEvery accesses.
		if i&(ctxCheckEvery-1) == 0 {
			if err := checkpoint(ctx); err != nil {
				return err
			}
		}
		for c := range e.cores {
			e.handleAccess(c, e.gens[c].Next())
		}
	}
	e.warm = false
	return nil
}

// releaseStride batches the controller Release calls: the arrival floor
// must advance at least this many cycles before the engine pays for
// another retirement sweep of the bus rings.
const releaseStride = 2048.0

func (e *engine) measure(ctx context.Context) error {
	budget := e.cfg.MeasureCycles
	scrubbing := e.cfg.ScrubLineInterval > 0
	nextScrub := e.cfg.ScrubLineInterval
	var scrubAddr uint64

	// The per-iteration core selection runs off a min-heap keyed by
	// (local clock, core id); maxTime tracks the fastest core
	// incrementally so the scrubber's "due" test needs no scan either.
	if cap(e.times) < len(e.cores) {
		e.times = make([]float64, len(e.cores))
	}
	times := e.times[:len(e.cores)]
	maxTime := 0.0
	for i, c := range e.cores {
		times[i] = c.Time()
		if times[i] > maxTime {
			maxTime = times[i]
		}
	}
	e.heap.reset(times)
	h := &e.heap
	lastRelease := 0.0

	for iter := 0; ; iter++ {
		// Cancellation checkpoint: bounded to ctxCheckEvery iterations so a
		// cancel interrupts mid-run, not at budget exhaustion.
		if iter&(ctxCheckEvery-1) == 0 {
			if err := checkpoint(ctx); err != nil {
				return err
			}
		}
		// Scrubber reads proceed at their own fixed rate.
		if scrubbing {
			for nextScrub < budget && maxTime >= nextScrub {
				loc := e.mapper.Map(scrubAddr)
				e.ctrl.AccessRow(nextScrub, loc.Channel, loc.Rank, loc.Bank, loc.Row, false, mem.ClassScrub)
				scrubAddr += uint64(e.line)
				nextScrub += e.cfg.ScrubLineInterval
			}
		}
		// Advance the core with the earliest local clock still inside the
		// window (keeps controller arrivals near time order).
		sel, t := h.min()
		if t >= budget {
			break
		}
		// Every future controller arrival happens at or after the earliest
		// core's clock (core clocks advance monotonically and the root is
		// the global minimum) — or at the next scrub tick, whichever is
		// sooner. Let the controller retire bus bookkeeping below that.
		floor := t
		if scrubbing && nextScrub < floor {
			floor = nextScrub
		}
		if floor >= lastRelease+releaseStride {
			e.ctrl.Release(floor)
			lastRelease = floor
		}
		acc := e.gens[sel].Next()
		c := e.cores[sel]
		c.AdvanceCompute(acc.InstrGap)
		e.handleAccess(sel, acc)
		nt := c.Time()
		if nt > maxTime {
			maxTime = nt
		}
		h.fixMin(nt)
	}
	e.ctrl.Finish(budget)
	return nil
}

// handleAccess performs one LLC access with the full eviction and
// ECC-maintenance cascade.
func (e *engine) handleAccess(ci int, acc workload.Access) {
	c := e.cores[ci]
	hit, victim, evicted := e.llc.Access(acc.Addr, cache.Data, acc.Write)
	if evicted {
		e.handleVictim(c, victim)
	}
	e.prefetch(ci, acc.Addr)
	if hit {
		if e.warm {
			return
		}
		// A hit on a still-in-flight prefetch is a "late hit": the core
		// waits for the fill like a short miss.
		line := acc.Addr / uint64(e.line) * uint64(e.line)
		if ready, ok := e.inflight.take(line); ok {
			if !acc.Write && ready > c.Time() {
				at := c.BeginMiss()
				if ready < at {
					ready = at
				}
				c.CompleteMiss(ready)
				return
			}
		}
		c.Hit()
		return
	}
	if e.warm {
		return
	}
	// Demand fetch. Loads occupy a miss slot; stores are absorbed by the
	// LSQ/write buffers and fetch without stalling the core.
	t := c.Time()
	if !acc.Write {
		t = c.BeginMiss()
	}
	loc := e.mapper.Map(acc.Addr)
	done := e.ctrl.AccessRow(t, loc.Channel, loc.Rank, loc.Bank, loc.Row, false, mem.ClassData)

	// Step A1/B of Fig. 6: reads to banks recorded faulty fetch the ECC
	// line in parallel (cached in the LLC per the VECC-style optimization).
	if e.cfg.Scheme.Traffic == ecc.TrafficParity && e.isMarked(loc) {
		eccAddr := core.ECCLineAddr(acc.Addr, e.r, e.line)
		hitE, vE, evE := e.llc.Access(eccAddr, cache.ECC, false)
		if evE {
			e.handleVictim(c, vE)
		}
		if !hitE {
			el := e.mapper.Map(eccAddr)
			if doneE := e.ctrl.AccessRow(t, el.Channel, el.Rank, el.Bank, el.Row, false, mem.ClassECC); doneE > done {
				done = doneE
			}
		}
	}
	if !acc.Write {
		c.CompleteMiss(done)
	}
}

// prefetch implements a per-core next-line stream prefetcher: a sequential
// access (64B stride) fetches the following LLC line ahead of the demand
// stream. Prefetches fill the LLC and occupy memory bandwidth but never
// stall the core. This is what lets streaming workloads (lbm, libquantum,
// streamcluster) reach the high bandwidth utilizations of Fig. 9 despite
// the bounded per-core MLP.
func (e *engine) prefetch(ci int, addr uint64) {
	trained := addr == e.lastMiss[ci]+workload.LineBytes
	e.lastMiss[ci] = addr
	if !trained {
		return
	}
	la := uint64(e.line)
	pf := (addr/la + 1) * la
	// Allocate is the probe-then-fill pair in one set scan: a line already
	// present is left untouched.
	present, pfV, pfEv := e.llc.Allocate(pf, cache.Data)
	if present {
		return
	}
	if pfEv {
		e.handleVictim(e.cores[ci], pfV)
	}
	if !e.warm {
		pl := e.mapper.Map(pf)
		done := e.ctrl.AccessRow(e.cores[ci].Time(), pl.Channel, pl.Rank, pl.Bank, pl.Row, false, mem.ClassData)
		e.inflight.put(pf, done)
		if e.inflight.len() > 1<<15 {
			e.pruneInflight()
		}
	}
}

// pruneInflight drops fills that have long completed relative to the
// slowest core, bounding the tracking map.
func (e *engine) pruneInflight() {
	oldest := e.cores[0].Time()
	for _, c := range e.cores[1:] {
		if t := c.Time(); t < oldest {
			oldest = t
		}
	}
	e.inflight.pruneBelow(oldest)
}

// handleVictim processes an eviction (and any cascade it causes) at the
// core's current time. Writebacks never stall the core; they contend for
// banks and buses like all traffic.
func (e *engine) handleVictim(c *cpu.Core, v cache.Evicted) {
	// FIFO walk over the engine's reusable queue; maintainECC appends any
	// cascade victims to the tail.
	queue := append(e.vq[:0], v)
	for qi := 0; qi < len(queue); qi++ {
		ev := queue[qi]
		if !ev.Dirty {
			continue
		}
		t := c.Time()
		switch ev.Kind {
		case cache.Data:
			if !e.warm {
				loc := e.mapper.Map(ev.Addr)
				e.ctrl.AccessRow(t, loc.Channel, loc.Rank, loc.Bank, loc.Row, true, mem.ClassData)
			}
			queue = e.maintainECC(c, ev.Addr, queue)
		case cache.ECC:
			if !e.warm {
				loc := e.mapper.Map(ev.Addr)
				e.ctrl.AccessRow(t, loc.Channel, loc.Rank, loc.Bank, loc.Row, true, mem.ClassECC)
			}
		case cache.XOR:
			// Parity-line read-modify-write (§IV-C: "the memory controller
			// issues both a memory read request and then a memory write
			// request"). The parity line physically lives in the reserved
			// rows of a rotating parity channel (Fig. 4's distribution),
			// so the parity traffic never lands on the dirty data's bank.
			if !e.warm {
				mc := e.ctrl.Config()
				ch, rk, bk, row := core.ParityLinePlacement(ev.Addr, e.channels,
					mc.RanksPerChannel, mc.BanksPerRank, 1<<16)
				e.ctrl.AccessRow(t, ch, rk, bk, row, false, mem.ClassECC)
				e.ctrl.AccessRow(t, ch, rk, bk, row, true, mem.ClassECC)
			}
		}
	}
	e.vq = queue[:0]
}

// maintainECC applies the scheme's ECC-update flow for one dirty data
// writeback and returns the eviction queue with any new victim appended.
func (e *engine) maintainECC(c *cpu.Core, addr uint64, queue []cache.Evicted) []cache.Evicted {
	switch e.cfg.Scheme.Traffic {
	case ecc.TrafficInline:
		return queue
	case ecc.TrafficECCLine:
		eccAddr := core.GECLineAddr(addr, e.cfg.Scheme.LinesPerECCLine, e.line)
		if e.cfg.DisableECCCaching {
			if !e.warm {
				el := e.mapper.Map(eccAddr)
				e.ctrl.AccessRow(c.Time(), el.Channel, el.Rank, el.Bank, el.Row, false, mem.ClassECC)
				e.ctrl.AccessRow(c.Time(), el.Channel, el.Rank, el.Bank, el.Row, true, mem.ClassECC)
			}
			return queue
		}
		hit, v, ev := e.llc.Access(eccAddr, cache.ECC, true)
		if ev {
			queue = append(queue, v)
		}
		if !hit && !e.warm {
			// The ECC line holds other lines' bits: fetch before update.
			loc := e.mapper.Map(eccAddr)
			e.ctrl.AccessRow(c.Time(), loc.Channel, loc.Rank, loc.Bank, loc.Row, false, mem.ClassECC)
		}
		return queue
	case ecc.TrafficParity:
		loc := e.mapper.Map(addr)
		if e.cfg.DisableECCCaching {
			// Naive Eq. 1 path: read the old data line, read the parity
			// line, write it back (§III-C's three extra accesses).
			if !e.warm {
				e.ctrl.AccessRow(c.Time(), loc.Channel, loc.Rank, loc.Bank, loc.Row, false, mem.ClassECC)
				xl := e.mapper.Map(core.XORCachelineAddr(addr, e.channels))
				e.ctrl.AccessRow(c.Time(), xl.Channel, xl.Rank, xl.Bank, xl.Row, false, mem.ClassECC)
				e.ctrl.AccessRow(c.Time(), xl.Channel, xl.Rank, xl.Bank, xl.Row, true, mem.ClassECC)
			}
			return queue
		}
		if e.isMarked(loc) {
			// Step D: faulty bank — update the stored correction bits.
			eccAddr := core.ECCLineAddr(addr, e.r, e.line)
			hit, v, ev := e.llc.Access(eccAddr, cache.ECC, true)
			if ev {
				queue = append(queue, v)
			}
			if !hit && !e.warm {
				el := e.mapper.Map(eccAddr)
				e.ctrl.AccessRow(c.Time(), el.Channel, el.Rank, el.Bank, el.Row, false, mem.ClassECC)
			}
			return queue
		}
		// Step E via the XOR-cacheline optimization: accumulate the parity
		// update in the LLC. A miss allocates an empty accumulator — no
		// memory read (this is what kills the read-old-value access of the
		// naive Eq. 1 implementation).
		xorAddr := core.XORCachelineAddr(addr, e.channels)
		_, v, ev := e.llc.Access(xorAddr, cache.XOR, true)
		if ev {
			queue = append(queue, v)
		}
		return queue
	}
	return queue
}

func (e *engine) isMarked(loc mem.Location) bool {
	return e.marked[loc.Channel][loc.Rank*mem.DefaultBanksPerRank+loc.Bank]
}

func (e *engine) collect() Result {
	var instr uint64
	for _, c := range e.cores {
		instr += c.Instructions()
	}
	st := *e.ctrl.Stats()
	cycles := e.cfg.MeasureCycles
	res := Result{
		SchemeKey:    e.cfg.Scheme.Key,
		Class:        e.cfg.Class,
		Workload:     e.cfg.Workload.Name,
		Instructions: instr,
		Cycles:       cycles,
		Mem:          st,
		Cache:        *e.llc.Stats(),
	}
	if instr > 0 {
		fi := float64(instr)
		res.IPC = fi / cycles
		res.EPI = st.TotalEnergy() / fi
		res.DynamicEPI = st.DynamicEnergy() / fi
		res.BackgroundEPI = st.BackgroundEnergy() / fi
		accesses := float64(st.TotalReads()+st.TotalWrites()) * float64(e.line) / 64
		res.AccessesPerInstr = accesses / fi
	}
	// Bandwidth: bytes moved over the wall-clock window vs peak
	// (64B per tBurst per channel).
	bytes := float64(st.TotalReads()+st.TotalWrites()) * float64(e.line)
	ns := cycles * e.ctrl.Config().Timing.TCKNs
	res.BandwidthGBs = bytes / ns // bytes per ns == GB/s
	// Peak: one line per burst slot per channel.
	peak := float64(e.channels) * float64(e.line) / (float64(e.ctrl.Config().Timing.TBurst) * e.ctrl.Config().Timing.TCKNs)
	res.BandwidthUtil = res.BandwidthGBs / peak
	return res
}
