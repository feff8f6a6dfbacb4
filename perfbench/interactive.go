package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"eccparity/pkg/api"
)

// interactive-mix: an open loop of interactive faultinject probes, each
// with a unique seed and few Monte Carlo trials, sent on a seeded Poisson
// schedule, races a closed loop of background figure sweeps over the
// fig10–fig17 ids × a trials axis × fresh seeds, whose points share
// evaluation matrices inside each job worker's report.Executor. One seed
// per sweep keeps the matrix work per sweep fixed: both job workers start
// on the sweep's first points together and each computes the quad and the
// dual matrix once.
const (
	probeRate   = 16.0 // probes per second
	probeTrials = 20
	probePoll   = 10 * time.Millisecond
	// probeTail is the probe-latency tail percentile: a 30-second run
	// sends about 480 probes, enough for ten beyond p95.
	probeTail  = 95
	bgCycles   = 20000
	bgWarmup   = 2000
	probeFirst = 5 // probes whose bytes enter the digest
)

var (
	bgExperiments = []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"}
	bgTrials      = []int{5, 10, 15, 20, 25, 30}
)

// bgSweep is one background sweep: every figure × every trials value at
// one seed.
func bgSweep(seed int64) api.SweepRequest {
	return api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "fig10", Cycles: bgCycles, Warmup: bgWarmup, Submitter: "background"},
		Axes: api.SweepAxes{Experiment: bgExperiments, Trials: bgTrials, Seed: []int64{seed}},
	}
}

func probePoint(seed int64) point {
	return point{Experiment: "faultinject", Req: api.SubmitRequest{
		Experiment: "faultinject", Trials: probeTrials, Seed: seed,
		Priority: api.PriorityInteractive, Submitter: "probe",
	}}
}

func runInteractiveMix(ctx context.Context, o options) (*run, error) {
	r := newRun()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rng := rand.New(rand.NewSource(o.seed))
	warmSeed := rng.Int63n(1<<40) + 1
	st, setup, err := setupTimed(func() (*singleStack, error) {
		return startSingle(rec, 512, func(ctx context.Context, c *api.Client) error {
			if _, err := runOne(ctx, c, probePoint(warmSeed), probePoll); err != nil {
				return err
			}
			_, _, err := c.RunSweep(ctx, api.SweepRequest{
				Base: bgSweep(warmSeed).Base,
				Axes: api.SweepAxes{Experiment: []string{"fig10"}, Seed: []int64{warmSeed}},
			}, 30*time.Second)
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

	schedule := poissonSchedule(rng, probeRate, o.window)
	probeSeeds := make([]int64, len(schedule))
	for i := range probeSeeds {
		probeSeeds[i] = rng.Int63n(1<<40) + 1
	}
	bgRng := rand.New(rand.NewSource(rng.Int63()))

	before, err := scrapeAll(ctx, st.hc, []string{st.d.url})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(o.window)

	// Background: closed loop of figure sweeps until the window closes.
	// Each finished sweep's results are fetched and checked while the next
	// sweep computes, so the job workers do not idle between sweeps.
	bgCtx, stopBG := context.WithCancel(ctx)
	defer stopBG()
	bgDone := completionRate{start: start, end: end}
	var (
		bgFirstPts  []point
		bgFirstDocs [][]byte
		bgErr       error
		bgWG        sync.WaitGroup
	)
	bgRun := newRun()
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		var finished *api.SweepStatus
		check := func() {
			if finished != nil {
				pts, docs := fetchSweep(ctx, bgRun, c, *finished)
				if bgFirstPts == nil {
					bgFirstPts, bgFirstDocs = pts, docs
				}
				finished = nil
			}
		}
		defer check()
		for time.Now().Before(end) {
			sw, err := c.SubmitSweep(bgCtx, bgSweep(bgRng.Int63n(1<<40)+1))
			if err != nil {
				if bgCtx.Err() == nil {
					bgErr = fmt.Errorf("submit background sweep: %w", err)
				}
				return
			}
			check()
			final, err := c.WatchSweep(bgCtx, sw.ID, 30*time.Second, func(p api.SweepPoint) error {
				if p.Status == api.StatusDone {
					bgDone.done(time.Now())
				}
				return nil
			})
			if err != nil {
				// The window closed mid-sweep: stop its remaining points.
				if bgCtx.Err() != nil {
					_, err = c.CancelSweep(context.Background(), sw.ID)
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					bgErr = fmt.Errorf("background sweep %s: %w", sw.ID, err)
				}
				return
			}
			finished = &final
		}
	}()

	// Foreground: the open-loop probes, each timed from its due time.
	var (
		mu        sync.Mutex
		samples   []openLoopSample
		submitLat []float64
		probes    byteLog
		wg        sync.WaitGroup
	)
	for i, off := range schedule {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s := openLoopSample{due: due, sent: time.Now()}
			p := probePoint(probeSeeds[i])
			t := time.Now()
			sr, err := c.Submit(ctx, p.Req)
			sub := ms(time.Since(t))
			var b []byte
			if err == nil {
				b, err = waitAndFetch(ctx, c, sr, probePoll)
			}
			s.done = time.Now()
			if err == nil {
				err = checkDoc(b, p)
			}
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			submitLat = append(submitLat, sub)
			if err != nil {
				r.failed++
				r.problem("probe %d: %v", i, err)
				return
			}
			samples = append(samples, s)
			probes.put(i, b)
		}(i, due)
	}
	wg.Wait()
	time.Sleep(time.Until(end))
	stopBG()
	bgWG.Wait()
	if bgErr != nil {
		return nil, bgErr
	}
	after, err := scrapeAll(ctx, st.hc, []string{st.d.url})
	if err != nil {
		return nil, err
	}
	r.attempted += bgRun.attempted
	r.failed += bgRun.failed
	r.problems = append(r.problems, bgRun.problems...)

	// Checks: the first background sweep and the first probes are the
	// seed-determined output set; one point of each kind is recomputed.
	firstProbes, ok := probes.take(probeFirst)
	if !ok || bgFirstPts == nil {
		r.problem("the window closed before the first background sweep and %d probes finished", probeFirst)
	} else {
		r.digest = digest(append(append([][]byte(nil), bgFirstDocs...), firstProbes...))
		i := rng.Intn(len(bgFirstPts))
		verifySample(ctx, r, []point{bgFirstPts[i], probePoint(probeSeeds[0])}, [][]byte{bgFirstDocs[i], firstProbes[0]})
	}

	lat := make([]float64, len(samples))
	late := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.latency())
		late[i] = ms(s.late())
	}
	r.e2e["throughput_per_s"] = bgDone.perSecond()
	r.e2e["latency_p50_ms"], r.e2e["latency_tail_ms"] = r.timing("probe latency from due time", lat, probeTail)
	r.note("background sweep points done in window: %d; probes scheduled: %d; probe submit p50 %.3fms",
		bgDone.n, len(schedule), median(submitLat))
	if rec != nil {
		daemonLayers(r, after.sub(before))
		recorderLayers(r, rec, o.window, 0)
		r.layers["loadgen.late_p95_ms"] = percentile(late, 95)
	}
	return r, finishE2E(r, setup)
}
