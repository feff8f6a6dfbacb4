package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"eccparity/internal/resultcache"
	"eccparity/internal/serve"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// daemon is one in-process eccsimd replica serving HTTP on loopback.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startDaemon serves a new serve.Server on ln. A non-nil rec wraps its
// handler in the tracing wrapper.
func startDaemon(opts serve.Options, ln net.Listener, rec *recorder) (*daemon, error) {
	s, err := serve.New(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	h := s.Handler()
	if rec != nil {
		h = tracedHandler(rec, h)
	}
	d := &daemon{srv: s, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener and its connections, cancels whatever work is
// still queued or running, and waits for the serving goroutine and the job
// workers to exit.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.srv.Drain(ctx)
}

// newHTTPClient is the load generator's client: at most nproc connections
// per replica, traced when rec is non-nil.
func newHTTPClient(rec *recorder) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		IdleConnTimeout:     time.Minute,
	}
	if rec != nil {
		rt = tracedTransport{rec: rec, inner: rt}
	}
	return &http.Client{Transport: rt}
}

// setupTimed builds the measured stack setupReps times, tearing down every
// build but the last, and returns the last with the median build time.
func setupTimed[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		st, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i < setupReps-1 {
			teardown(st)
		}
		last = st
	}
	return last, median(times), nil
}

// point is one experiment configuration as the client submits it.
type point struct {
	Experiment string
	Req        api.SubmitRequest
}

func (p point) params() report.Params {
	return report.Params{
		Cycles: p.Req.Cycles, Warmup: p.Req.Warmup, Trials: p.Req.Trials, Seed: p.Req.Seed,
		CSV: p.Req.CSV, Scheme: p.Req.Scheme, SchemeOptions: string(p.Req.SchemeOptions),
	}
}

// expectedHash is the content address the daemon must give p: the
// SHA-256 of the normalized (experiment, params) config.
func expectedHash(p point) (string, report.Params, error) {
	np, err := p.params().NormalizedFor(p.Experiment)
	if err != nil {
		return "", np, err
	}
	h, err := resultcache.Key(struct {
		Experiment string        `json:"experiment"`
		Params     report.Params `json:"params"`
	}{p.Experiment, np})
	return h, np, err
}

// expectedDoc computes p's result document in this process through
// report.NewRunner and renders it the way the daemon does, so it can be
// compared byte for byte with what was served.
func expectedDoc(ctx context.Context, p point) ([]byte, error) {
	hash, np, err := expectedHash(p)
	if err != nil {
		return nil, err
	}
	np.Workers = 1
	rep, err := report.NewRunner(np, nil).RunContext(ctx, p.Experiment)
	if err != nil {
		return nil, err
	}
	var data json.RawMessage
	if rep.Data != nil {
		if data, err = json.Marshal(rep.Data); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(api.Result{
		Hash:       hash,
		Experiment: p.Experiment,
		Params: api.Params{
			Cycles: np.Cycles, Warmup: np.Warmup, Trials: np.Trials, Seed: np.Seed, CSV: np.CSV,
			Scheme: np.Scheme, SchemeOptions: np.SchemeOptions,
		},
		Report: api.Report{Experiment: rep.Experiment, Title: rep.Title, Text: rep.Text, Data: data},
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkDoc verifies a served result document's shape against the point it
// answers: its content address, experiment and normalized params.
func checkDoc(b []byte, p point) error {
	hash, np, err := expectedHash(p)
	if err != nil {
		return err
	}
	var doc api.Result
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("result is not a JSON document: %w", err)
	}
	switch {
	case doc.Hash != hash:
		return fmt.Errorf("result hash %.12s, want %.12s", doc.Hash, hash)
	case doc.Experiment != p.Experiment || doc.Report.Experiment != p.Experiment:
		return fmt.Errorf("result experiment %q, want %q", doc.Experiment, p.Experiment)
	case doc.Params.Seed != np.Seed || doc.Params.Trials != np.Trials || doc.Params.Cycles != np.Cycles ||
		doc.Params.Warmup != np.Warmup || doc.Params.Scheme != np.Scheme:
		return fmt.Errorf("result params %+v, want %+v", doc.Params, np)
	case doc.Report.Text == "" || len(doc.Report.Data) == 0:
		return errors.New("result has no report text or data")
	}
	return nil
}

// verifySample recomputes the given points in process and compares them
// with the served bytes; every mismatch is a failed check.
func verifySample(ctx context.Context, r *run, pts []point, served [][]byte) {
	for i, p := range pts {
		want, err := expectedDoc(ctx, p)
		if err != nil {
			r.problem("recompute %s seed %d: %v", p.Experiment, p.Req.Seed, err)
			continue
		}
		if string(want) != string(served[i]) {
			r.problem("%s seed %d: served bytes differ from the in-process recompute", p.Experiment, p.Req.Seed)
		}
	}
	r.note("recomputed %d sampled points in process and compared bytes", len(pts))
}

// digest hashes documents in order.
func digest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		fmt.Fprintf(h, "%d\n", len(d))
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// byteLog collects served documents by index, safely across goroutines.
type byteLog struct {
	mu   sync.Mutex
	docs map[int][]byte
}

func (l *byteLog) put(i int, b []byte) {
	l.mu.Lock()
	if l.docs == nil {
		l.docs = map[int][]byte{}
	}
	l.docs[i] = b
	l.mu.Unlock()
}

// take returns the documents 0..n-1 and whether all of them were logged.
func (l *byteLog) take(n int) ([][]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, n)
	for i := range out {
		b, ok := l.docs[i]
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// scrapeAll sums the /metrics scrapes of every daemon.
func scrapeAll(ctx context.Context, hc *http.Client, urls []string) (scrape, error) {
	total := scrape{}
	for _, u := range urls {
		s, err := fetchMetrics(ctx, hc, u)
		if err != nil {
			return nil, err
		}
		total.add(s)
	}
	return total, nil
}

// daemonLayers fills the per-layer metrics read from the daemons' own
// /metrics over the window (end minus start scrape).
func daemonLayers(r *run, w scrape) {
	for _, c := range []string{"interactive", "sweep"} {
		label := fmt.Sprintf("class=%q", c)
		r.layers["jobqueue.wait_ms."+c+".p50"] = w.histPercentile("eccsimd_queue_wait_ms", label, 50)
		r.layers["jobqueue.wait_ms."+c+".p95"] = w.histPercentile("eccsimd_queue_wait_ms", label, 95)
	}
	r.layers["jobqueue.compute_ms"] = w.histMean("eccsimd_experiment_latency_ms", `experiment="faultinject"`)
	for _, id := range pointExperiments {
		r.layers["report.point_ms."+id] = w.histMean("eccsimd_experiment_latency_ms", fmt.Sprintf("experiment=%q", id))
	}
	hits := w["eccsimd_cache_hits_total"] + w["eccsimd_cache_coalesced_total"]
	if lookups := hits + w["eccsimd_cache_misses_total"]; lookups > 0 {
		r.layers["resultcache.hit_ratio"] = hits / lookups
	}
}

// recorderLayers fills the per-layer metrics recorded by the wrappers.
func recorderLayers(r *run, rec *recorder, window time.Duration, reads float64) {
	for _, name := range []string{"http.job_ms", "http.submit_ms", "http.result_ms", "cluster.peer_hop_ms",
		"resultcache.shared_fill_ms", "blob.get_ms", "ec.get_self_ms", "blob.put_ms", "ec.put_self_ms"} {
		r.layers[name] = rec.p50(name)
	}
	r.layers["ec.reconstructs"] = rec.count("ec.reconstructs")
	if jobs := rec.count("client.jobs"); jobs > 0 {
		r.layers["client.polls_per_job"] = rec.count("client.polls") / jobs
	}
	if subs := rec.count("client.submits"); subs > 0 {
		r.layers["cluster.forwarded_frac"] = rec.count("client.forwarded") / subs
	}
	if reads > 0 {
		r.layers["cluster.redirected_frac"] = rec.count("client.redirects") / reads
	}
	cost := spanCost()
	r.layers["trace.overhead_frac"] = float64(rec.spans.Load()) * float64(cost) / float64(window)
	r.note("trace: %d spans at %v each", rec.spans.Load(), cost)
}

// finishE2E records the metrics every workload reports the same way.
func finishE2E(r *run, setup float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	r.e2e["peak_rss_mb"] = rss
	return nil
}
