package main

// Engine layer replay for the traced run. The engine exposes no hooks, so
// its layers are measured by calling their public functions directly:
// whole sim.RunContext runs, then workload.Generator.Next, cache.Cache.Access
// and mem.Controller.AccessRow replayed alone on the streams one such run
// produces. What the three layers do not explain is the residual
// (sim.unattributed_frac): the cpu model, the prefetcher and the core heap.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"eccparity/internal/cache"
	"eccparity/internal/dram"
	"eccparity/internal/ecc"
	"eccparity/internal/mem"
	"eccparity/internal/sim"
	"eccparity/internal/workload"
)

const (
	// The replayed cell: the paper's ECC-parity overlay on a workload with
	// mixed streaming and random traffic, at the full per-cell budget.
	replayScheme   = "lotecc5+parity"
	replayWorkload = "milc"
	replayReps     = 5
	// maxOverExplain bounds how far the replayed layers may sum past the
	// whole run's time before the attribution counts as broken.
	maxOverExplain = 0.10
	// releaseStride mirrors the engine's batching of controller Release
	// calls (cycles).
	releaseStride = 2048.0
	codecLines    = 4000
)

// medianTime runs f replayReps times and returns its median duration in
// nanoseconds.
func medianTime(f func()) float64 {
	var ts []float64
	for i := 0; i < replayReps; i++ {
		t := time.Now()
		f()
		ts = append(ts, float64(time.Since(t)))
	}
	return median(ts)
}

// recorded is one generator access and the core that issued it, in the
// order the engine consumed them.
type recorded struct {
	core int
	a    workload.Access
}

// recordingSource feeds the engine a live generator's stream and logs it.
type recordingSource struct {
	g    *workload.Generator
	core int
	log  *[]recorded
}

func (s *recordingSource) Next() workload.Access {
	a := s.g.Next()
	*s.log = append(*s.log, recorded{s.core, a})
	return a
}

// memConfigFor builds the controller configuration the engine uses for a
// scheme and system class.
func memConfigFor(sc sim.SchemeConfig, class sim.SystemClass) mem.Config {
	g := sc.Base.Geometry()
	var chips []dram.Chip
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

type memReq struct {
	addr  uint64
	write bool
}

func engineReplay(ctx context.Context, o options, r *run) error {
	cfg := sim.DefaultConfig(replayScheme, sim.QuadEq, replayWorkload)
	cfg.Seed = o.seed

	// Whole runs, untraced.
	var base sim.Result
	var runErr error
	reps := 0
	runNs := medianTime(func() {
		res, err := sim.RunContext(ctx, cfg)
		switch {
		case err != nil:
			runErr = err
		case reps == 0:
			base = res
		case !reflect.DeepEqual(res, base):
			r.problem("sim.RunContext gave different statistics on repetition %d", reps)
		}
		reps++
	})
	if runErr != nil {
		return runErr
	}

	// The same run with its generators behind recording sources: the
	// statistics must not change.
	var log []recorded
	srcs := make([]workload.Source, cfg.Cores)
	for i := range srcs {
		srcs[i] = &recordingSource{g: workload.NewGenerator(cfg.Workload, i, cfg.Seed), core: i, log: &log}
	}
	rc := cfg
	rc.Sources = srcs
	counted, err := sim.RunContext(ctx, rc)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(counted, base) {
		r.problem("simulated statistics differ between the recorded and the plain run")
	}
	nNext := len(log)

	// Generator layer: regenerate the stream. Each layer replay runs
	// replayReps times on state reset in place, like the engine's arena
	// reuses it, and reports the median: the first pass pays page faults
	// the engine does not.
	gens := make([]*workload.Generator, cfg.Cores)
	perCore := make([]int, cfg.Cores)
	for i := range gens {
		gens[i] = workload.NewGenerator(cfg.Workload, i, cfg.Seed)
	}
	for _, rec := range log {
		perCore[rec.core]++
	}
	var sink uint64
	genNs := medianTime(func() {
		for i, g := range gens {
			g.Reset(cfg.Workload, i, cfg.Seed)
			for j := 0; j < perCore[i]; j++ {
				sink += g.Next().Addr
			}
		}
	})

	// LLC layer: the demand stream through a cache of the engine's
	// geometry, timed alone; an untimed pass collects the misses and dirty
	// victims the controller would see.
	line := cfg.Scheme.Base.Geometry().LineSize
	llc := cache.New(cfg.LLCBytes, cfg.LLCWays, line)
	cacheNs := medianTime(func() {
		llc.Reset()
		for _, rec := range log {
			if hit, _, _ := llc.Access(rec.a.Addr, cache.Data, rec.a.Write); hit {
				sink++
			}
		}
	})
	llc.Reset()
	var stream []memReq
	for _, rec := range log {
		hit, v, ev := llc.Access(rec.a.Addr, cache.Data, rec.a.Write)
		if !hit {
			stream = append(stream, memReq{addr: rec.a.Addr})
		}
		if ev && v.Dirty {
			stream = append(stream, memReq{addr: v.Addr, write: true})
		}
	}
	// The engine's LLC calls: every demand access, every prefetch fill
	// attempt (a sequential access per core) and every ECC/XOR line update.
	last := make([]uint64, cfg.Cores)
	prefetches := 0
	for _, rec := range log {
		if rec.a.Addr == last[rec.core]+workload.LineBytes {
			prefetches++
		}
		last[rec.core] = rec.a.Addr
	}
	cs := base.Cache
	nLLC := nNext + prefetches + int(cs.Hits[cache.ECC]+cs.Misses[cache.ECC]+cs.Hits[cache.XOR]+cs.Misses[cache.XOR])

	// Controller layer: as many requests as the engine sent (the tail of
	// the miss stream; warm-up misses never reach the controller) spread
	// evenly over the measured window, so the bus sees the engine's load,
	// with the engine's Release cadence.
	nMem := base.Mem.TotalReads() + base.Mem.TotalWrites()
	if uint64(len(stream)) > nMem {
		stream = stream[uint64(len(stream))-nMem:]
	}
	mc := memConfigFor(cfg.Scheme, cfg.Class)
	mapper := mem.NewAddressMapper(mc.Channels, mc.RanksPerChannel, mc.BanksPerRank, mc.LineBytes)
	ctrl := mem.NewController(mc)
	step := cfg.MeasureCycles / float64(len(stream))
	memNs := medianTime(func() {
		ctrl.Reset(mc)
		now, lastRelease := 0.0, 0.0
		for _, m := range stream {
			now += step
			loc := mapper.Map(m.addr)
			ctrl.AccessRow(now, loc.Channel, loc.Rank, loc.Bank, loc.Row, m.write, mem.ClassData)
			if now >= lastRelease+releaseStride {
				ctrl.Release(now)
				lastRelease = now
			}
		}
		ctrl.Finish(now)
	})

	cachePer := cacheNs / float64(len(log))
	memPer := memNs / float64(len(stream))
	explained := genNs + cachePer*float64(nLLC) + memPer*float64(nMem)
	unattributed := 1 - explained/runNs
	if unattributed < -maxOverExplain {
		r.problem("replayed engine layers sum to %.0f%% of the whole sim.RunContext time (bound %.0f%%)",
			100*explained/runNs, 100*(1+maxOverExplain))
	}
	r.note("engine replay: run %.1fms; next %d calls, llc %d calls, mem %d calls; layers explain %.1f%% (sink %d)",
		runNs/1e6, nNext, nLLC, nMem, 100*explained/runNs, sink&1)

	r.layers["workload.next_ns"] = genNs / float64(nNext)
	r.layers["cache.access_ns"] = cachePer
	r.layers["mem.access_ns"] = memPer
	r.layers["sim.run_ms"] = runNs / 1e6
	r.layers["sim.accesses_per_s"] = float64(nNext) / (runNs / 1e9)
	r.layers["sim.unattributed_frac"] = unattributed
	r.layers["cache.data_miss_ratio"] = cs.MissRate(cache.Data)
	st := base.Mem
	if total := st.TotalReads() + st.TotalWrites(); total > 0 {
		r.layers["mem.ecc_traffic_frac"] = float64(st.Reads[mem.ClassECC]+st.Writes[mem.ClassECC]) / float64(total)
	}
	r.layers["mem.read_latency_cycles"] = st.AvgReadLatency()
	return codecReplay(o, r)
}

// codecReplay times the on-die + chipkill composite's Correct on lines
// with one flipped bit each, and checks every line comes back intact.
func codecReplay(o options, r *run) error {
	s, err := ecc.Build("ondie+chipkill", "")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	lines := make([][]byte, codecLines)
	cws := make([]*ecc.Codeword, codecLines)
	corrs := make([][]byte, codecLines)
	for i := range lines {
		lines[i] = make([]byte, s.Geometry().LineSize)
		rng.Read(lines[i])
		cws[i], corrs[i] = s.Encode(lines[i])
		chip := rng.Intn(len(cws[i].Shards))
		bit := rng.Intn(8 * len(cws[i].Shards[chip]))
		cws[i].Shards[chip][bit/8] ^= 1 << uint(bit%8)
	}
	got := make([][]byte, codecLines)
	t := time.Now()
	for i := range cws {
		if got[i], _, err = s.Correct(cws[i], corrs[i]); err != nil {
			return fmt.Errorf("correct line %d: %w", i, err)
		}
	}
	r.layers["ecc.correct_ns"] = float64(time.Since(t)) / codecLines
	for i := range got {
		if !bytes.Equal(got[i], lines[i]) {
			r.problem("ondie+chipkill miscorrected a single-bit error on line %d", i)
			break
		}
	}
	return nil
}
