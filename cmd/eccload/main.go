// Command eccload is the serving-latency load generator for eccsimd: it
// drives a daemon with the adversarial mix the fair scheduler exists for —
// one large low-priority sweep saturating the queue while a steady trickle
// of interactive submissions races it — and reports interactive latency
// percentiles (p50/p95/p99), request rate, and sweep throughput as
// machine-readable JSON.
//
// By default it self-hosts a fresh in-process daemon (no network noise, no
// cache pollution from earlier runs):
//
//	eccload -sweep-points 1000 -probes 40 -out bench.json
//
// Point it at a running daemon instead with -addr:
//
//	eccload -addr http://localhost:8344
//
// Interactive probes use an analytic experiment with a unique seed per
// probe, so every probe is a real compute job (the content-addressed cache
// never short-circuits it). The sweep is watched over the streaming
// ?watch= endpoint, which doubles as a load test of chunked delivery: the
// report records how many point events arrived and the time to the first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"eccparity/internal/serve"
	"eccparity/pkg/api"
)

type config struct {
	addr        string
	sweepPoints int
	sweepExp    string
	sweepTrials int
	cycles      float64
	warmup      int
	probes      int
	interval    time.Duration
	probeExp    string
	priority    string
	jobWorkers  int
	out         string
}

// measurement is one run's result. Scheduler is always "fair", the key
// cmd/benchdiff compares serving results under.
type measurement struct {
	Scheduler string `json:"scheduler"`

	// Interactive probe latencies, submit → terminal, milliseconds.
	Probes         int     `json:"probes"`
	ProbeErrors    int     `json:"probe_errors"`
	P50Ms          float64 `json:"interactive_p50_ms"`
	P95Ms          float64 `json:"interactive_p95_ms"`
	P99Ms          float64 `json:"interactive_p99_ms"`
	MaxMs          float64 `json:"interactive_max_ms"`
	InteractiveRPS float64 `json:"interactive_rps"`

	// Sweep side: total wall time and aggregate throughput.
	SweepPoints   int     `json:"sweep_points"`
	SweepWallMs   float64 `json:"sweep_wall_ms"`
	PointsPerS    float64 `json:"points_per_s"`
	StreamEvents  int     `json:"stream_events"`
	FirstStreamMs float64 `json:"first_stream_event_ms"`
}

type report struct {
	Date    string `json:"date"`
	Command string `json:"command"`
	Host    struct {
		GOOS         string `json:"goos"`
		GOARCH       string `json:"goarch"`
		VisibleCores int    `json:"visible_cores"`
	} `json:"host"`
	Benchmark string `json:"benchmark"`
	Load      struct {
		SweepPoints     int     `json:"sweep_points"`
		SweepExperiment string  `json:"sweep_experiment"`
		SweepTrials     int     `json:"sweep_trials"`
		Cycles          float64 `json:"cycles"`
		Warmup          int     `json:"warmup"`
		Probes          int     `json:"probes"`
		ProbeExperiment string  `json:"probe_experiment"`
		IntervalMs      float64 `json:"probe_interval_ms"`
		JobWorkers      int     `json:"job_workers"`
	} `json:"load"`
	Results []measurement `json:"results"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "measure a running daemon at this base URL (empty: self-host one)")
	flag.IntVar(&cfg.sweepPoints, "sweep-points", 1000, "points in the background sweep")
	flag.StringVar(&cfg.sweepExp, "sweep-experiment", "fig8", "experiment the sweep grids over")
	flag.IntVar(&cfg.sweepTrials, "sweep-trials", 5, "Monte Carlo trials per sweep point (keep small: the backlog, not the point cost, is under test)")
	flag.Float64Var(&cfg.cycles, "cycles", 20000, "simulated cycles per sweep point")
	flag.IntVar(&cfg.warmup, "warmup", 2000, "warmup cycles per sweep point")
	flag.IntVar(&cfg.probes, "probes", 40, "interactive submissions raced against the sweep")
	flag.DurationVar(&cfg.interval, "interval", 150*time.Millisecond, "gap between interactive submissions")
	flag.StringVar(&cfg.probeExp, "probe-experiment", "fig1", "experiment the interactive probes submit (analytic → cheap; unique seeds defeat the cache)")
	flag.StringVar(&cfg.priority, "priority", "interactive", "priority class the probes submit under (interactive, sweep, or batch)")
	flag.IntVar(&cfg.jobWorkers, "job-workers", 2, "job workers for self-hosted daemons")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (empty: stdout)")
	flag.Parse()

	if cfg.sweepPoints < 1 || cfg.probes < 1 {
		log.Fatal("-sweep-points and -probes must be positive")
	}

	rep := report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Command:   fmt.Sprintf("eccload -sweep-points %d -probes %d -interval %v", cfg.sweepPoints, cfg.probes, cfg.interval),
		Benchmark: "ServingLatencyUnderSweep",
	}
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.VisibleCores = runtime.NumCPU()
	rep.Load.SweepPoints = cfg.sweepPoints
	rep.Load.SweepExperiment = cfg.sweepExp
	rep.Load.SweepTrials = cfg.sweepTrials
	rep.Load.Cycles = cfg.cycles
	rep.Load.Warmup = cfg.warmup
	rep.Load.Probes = cfg.probes
	rep.Load.ProbeExperiment = cfg.probeExp
	rep.Load.IntervalMs = float64(cfg.interval) / float64(time.Millisecond)
	rep.Load.JobWorkers = cfg.jobWorkers

	ar, err := measure(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("interactive p50=%.0fms p95=%.0fms p99=%.0fms, sweep %.1f points/s",
		ar.P50Ms, ar.P95Ms, ar.P99Ms, ar.PointsPerS)
	rep.Results = []measurement{ar}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if cfg.out == "" {
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(cfg.out, out, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s", cfg.out)
}

// measure starts (or dials) a daemon, launches the big sweep, races
// interactive probes against it, waits for both, and reports.
func measure(ctx context.Context, cfg config) (measurement, error) {
	ar := measurement{Scheduler: "fair", SweepPoints: cfg.sweepPoints}

	base := cfg.addr
	if base == "" {
		s, err := serve.New(serve.Options{
			Workers:        1,
			JobWorkers:     cfg.jobWorkers,
			QueueCap:       cfg.sweepPoints + cfg.probes + 64,
			MaxSweepPoints: cfg.sweepPoints,
		})
		if err != nil {
			return ar, err
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Drain(drainCtx)
		}()
		base = ts.URL
	}
	c := api.NewClient(base)

	seeds := make([]int64, cfg.sweepPoints)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	sweepStart := time.Now()
	sw, err := c.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{
			Experiment: cfg.sweepExp,
			Cycles:     cfg.cycles,
			Warmup:     cfg.warmup,
			Trials:     cfg.sweepTrials,
			Submitter:  "eccload-sweep",
		},
		Axes: api.SweepAxes{Seed: seeds},
	})
	if err != nil {
		return ar, fmt.Errorf("submit sweep: %w", err)
	}

	// Watch the sweep over the streaming endpoint while probes race it.
	var (
		sweepDone = make(chan error, 1)
		streamMu  sync.Mutex
	)
	go func() {
		_, err := c.WatchSweep(ctx, sw.ID, 30*time.Second, func(p api.SweepPoint) error {
			streamMu.Lock()
			ar.StreamEvents++
			if ar.FirstStreamMs == 0 {
				ar.FirstStreamMs = float64(time.Since(sweepStart)) / float64(time.Millisecond)
			}
			streamMu.Unlock()
			return nil
		})
		sweepDone <- err
	}()

	// Interactive probes: one goroutine each, launched on a fixed cadence,
	// every probe a distinct seed so it is computed, never cache-served.
	lat := make([]float64, 0, cfg.probes)
	var (
		latMu  sync.Mutex
		wg     sync.WaitGroup
		errors int
	)
	probeStart := time.Now()
	for i := 0; i < cfg.probes; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			t0 := time.Now()
			_, err := c.Run(ctx, api.SubmitRequest{
				Experiment: cfg.probeExp,
				Seed:       seed,
				Priority:   cfg.priority,
				Submitter:  "eccload-probe",
			}, 25*time.Millisecond)
			latMu.Lock()
			defer latMu.Unlock()
			if err != nil {
				errors++
				return
			}
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		}(int64(1_000_000 + i))
		time.Sleep(cfg.interval)
	}
	wg.Wait()
	probeWall := time.Since(probeStart)

	if err := <-sweepDone; err != nil {
		return ar, fmt.Errorf("watch sweep: %w", err)
	}
	sweepWall := time.Since(sweepStart)

	ar.Probes = len(lat)
	ar.ProbeErrors = errors
	ar.P50Ms = percentile(lat, 50)
	ar.P95Ms = percentile(lat, 95)
	ar.P99Ms = percentile(lat, 99)
	if len(lat) > 0 {
		sort.Float64s(lat)
		ar.MaxMs = lat[len(lat)-1]
	}
	ar.InteractiveRPS = float64(len(lat)) / probeWall.Seconds()
	ar.SweepWallMs = float64(sweepWall) / float64(time.Millisecond)
	ar.PointsPerS = float64(cfg.sweepPoints) / sweepWall.Seconds()
	return ar, nil
}

// percentile returns the p-th percentile (nearest-rank) of xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(float64(len(xs))*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}
