package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"eccparity/internal/serve"
	"eccparity/pkg/api"
)

// engine-sweep: one closed-loop client submits a schemeeval sweep over a
// seed axis × a scheme axis, watches it over ?watch= to completion, fetches
// and checks every point, then submits the next. Every point has a fresh
// seed, so no cache or evaluation store ever hits: the engine layers do
// nearly all the work.
const (
	engineCycles        = 50000
	engineWarmup        = 5000
	engineSeedsPerSweep = 2
	// engineTail is the sweep-latency tail percentile: a run completes
	// about 60 sweeps, enough for ten beyond p75.
	engineTail = 75
	// engineSample is how many points of the first sweep are recomputed in
	// process and compared byte for byte.
	engineSample = 2
)

// engineSchemes has one scheme per ECC traffic model of the engine: inline
// check bits, an ECC line, the ECC-parity overlay, and the on-die composite.
var engineSchemes = []string{"chipkill18", "lotecc5", "lotecc5+parity", "ondie+chipkill"}

// singleStack is one daemon plus the client driving it.
type singleStack struct {
	d  *daemon
	hc *http.Client
	c  *api.Client
}

func (s *singleStack) stop() { s.d.stop() }

// startSingle starts one daemon with nproc job workers of one engine
// worker each, so daemon compute goroutines never exceed nproc, and runs
// warm on it before returning.
func startSingle(rec *recorder, queueCap int, warm func(context.Context, *api.Client) error) (*singleStack, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(serve.Options{
		Workers: 1, JobWorkers: runtime.NumCPU(), QueueCap: queueCap, MaxSweepPoints: queueCap,
	}, ln, rec)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(rec)
	s := &singleStack{d: d, hc: hc, c: &api.Client{BaseURL: d.url, HTTPClient: hc}}
	if err := warm(context.Background(), s.c); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// runOne submits p, waits for it and returns its result bytes.
func runOne(ctx context.Context, c *api.Client, p point, poll time.Duration) ([]byte, error) {
	sr, err := c.Submit(ctx, p.Req)
	if err != nil {
		return nil, err
	}
	return waitAndFetch(ctx, c, sr, poll)
}

// waitAndFetch waits for a submission's job, when it has one, and fetches
// its result bytes.
func waitAndFetch(ctx context.Context, c *api.Client, sr api.SubmitResponse, poll time.Duration) ([]byte, error) {
	if !sr.Cached {
		js, err := c.Wait(ctx, sr.JobID, poll)
		if err != nil {
			return nil, err
		}
		if js.Status != api.StatusDone {
			return nil, fmt.Errorf("job %s ended %s: %s", js.ID, js.Status, js.Error)
		}
	}
	return c.ResultBytes(ctx, sr.ResultHash)
}

// sweepPoint turns a served sweep point back into the request that
// computes it on its own.
func sweepPoint(sp api.SweepPoint) point {
	return point{Experiment: sp.Experiment, Req: api.SubmitRequest{
		Experiment: sp.Experiment, Cycles: sp.Params.Cycles, Warmup: sp.Params.Warmup,
		Trials: sp.Params.Trials, Seed: sp.Params.Seed, Scheme: sp.Params.Scheme,
	}}
}

// fetchSweep fetches and checks every point of a finished sweep, counting
// failures, and returns the points and their bytes in index order.
func fetchSweep(ctx context.Context, r *run, c *api.Client, st api.SweepStatus) ([]point, [][]byte) {
	pts := make([]point, len(st.Points))
	docs := make([][]byte, len(st.Points))
	for i, sp := range st.Points {
		r.attempted++
		pts[i] = sweepPoint(sp)
		if sp.Status != api.StatusDone {
			r.failed++
			r.problem("sweep %s point %d ended %s: %s", st.ID, sp.Index, sp.Status, sp.Error)
			continue
		}
		b, err := c.ResultBytes(ctx, sp.ResultHash)
		if err == nil {
			err = checkDoc(b, pts[i])
		}
		if err != nil {
			r.failed++
			r.problem("sweep %s point %d: %v", st.ID, sp.Index, err)
			continue
		}
		docs[i] = b
	}
	return pts, docs
}

func runEngineSweep(ctx context.Context, o options) (*run, error) {
	r := newRun()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rng := rand.New(rand.NewSource(o.seed))
	newSeed := func() int64 { return rng.Int63n(1<<40) + 1 }
	warmSeed := newSeed()
	st, setup, err := setupTimed(func() (*singleStack, error) {
		return startSingle(rec, 64, func(ctx context.Context, c *api.Client) error {
			_, err := runOne(ctx, c, point{"schemeeval", api.SubmitRequest{
				Experiment: "schemeeval", Cycles: engineCycles, Warmup: engineWarmup, Seed: warmSeed, Scheme: "lotecc5+parity",
			}}, 5*time.Millisecond)
			return err
		})
	}, (*singleStack).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	c := st.c
	if rec != nil {
		rec.reset()
	}
	before, err := scrapeAll(ctx, st.hc, []string{st.d.url})
	if err != nil {
		return nil, err
	}

	var sweepLat, submitLat []float64
	var firstPts []point
	var firstDocs [][]byte
	start := time.Now()
	end := start.Add(o.window)
	done := newSlicer(start, o.window, windowSlices)
	for time.Now().Before(end) {
		seeds := make([]int64, engineSeedsPerSweep)
		for i := range seeds {
			seeds[i] = newSeed()
		}
		t := time.Now()
		sw, err := c.SubmitSweep(ctx, api.SweepRequest{
			Base: api.SubmitRequest{Experiment: "schemeeval", Cycles: engineCycles, Warmup: engineWarmup, Submitter: "engine-sweep"},
			Axes: api.SweepAxes{Scheme: engineSchemes, Seed: seeds},
		})
		submitLat = append(submitLat, ms(time.Since(t)))
		if err != nil {
			r.attempted++
			r.failed++
			r.problem("submit sweep: %v", err)
			continue
		}
		final, err := c.WatchSweep(ctx, sw.ID, 30*time.Second, func(p api.SweepPoint) error {
			if p.Status == api.StatusDone {
				done.add(time.Now(), 1)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("watch sweep %s: %w", sw.ID, err)
		}
		sweepLat = append(sweepLat, ms(time.Since(t)))
		pts, docs := fetchSweep(ctx, r, c, final)
		if firstPts == nil {
			firstPts, firstDocs = pts, docs
		}
	}
	after, err := scrapeAll(ctx, st.hc, []string{st.d.url})
	if err != nil {
		return nil, err
	}

	r.digest = digest(firstDocs)
	var sample []point
	var sampleDocs [][]byte
	for _, i := range rng.Perm(len(firstPts))[:engineSample] {
		sample = append(sample, firstPts[i])
		sampleDocs = append(sampleDocs, firstDocs[i])
	}
	verifySample(ctx, r, sample, sampleDocs)

	r.e2e["throughput_per_s"] = done.rate()
	r.e2e["latency_p50_ms"], r.e2e["latency_tail_ms"] = r.timing("sweep latency", sweepLat, engineTail)
	r.note("point rate per slice: %.1f", done.rates())
	r.note("sweep points done in window: %d; sweep submit p50 %.3fms", done.count(), median(submitLat))
	if rec != nil {
		daemonLayers(r, after.sub(before))
		recorderLayers(r, rec, o.window, 0)
	}
	return r, finishE2E(r, setup)
}
