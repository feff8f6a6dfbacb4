package main

// Tracing from outside the program: every span here is recorded by a
// wrapper the benchmark installs around a layer's public interface
// (http.Handler, http.RoundTripper, blob.Backend), never inside the layer.
// The untraced run installs none of them.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eccparity/internal/blob"
)

// recorder collects per-layer samples (milliseconds) and counters.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64
	counts  map[string]float64
	spans   atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// observe records one span's duration under name.
func (r *recorder) observe(name string, d time.Duration) {
	r.spans.Add(1)
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], ms(d))
	r.mu.Unlock()
}

// add bumps a counter.
func (r *recorder) add(name string, n float64) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

func (r *recorder) count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// p50 is the median of a span's samples (0 when none were recorded).
func (r *recorder) p50(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.samples[name])
}

// reset drops everything recorded so far (set-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.samples = map[string][]float64{}
	r.counts = map[string]float64{}
	r.mu.Unlock()
	r.spans.Store(0)
}

// spanCost measures what one recorded span costs the traced program: two
// clock reads plus one observe call.
func spanCost() time.Duration {
	r := newRecorder()
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s := time.Now()
		r.observe("x", time.Since(s))
	}
	return time.Since(t0) / n
}

// Relay and routing headers of internal/serve's peer protocol.
const (
	relayHeader    = "X-Eccsimd-Relay"
	servedByHeader = "X-Eccsimd-Served-By"
)

// tracedHandler times every request a daemon serves, by route. Requests
// relayed by another replica are peer hops and are timed as such.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		switch {
		case r.Header.Get(relayHeader) != "":
			rec.observe("cluster.peer_hop_ms", d)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/experiments":
			rec.observe("http.submit_ms", d)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/results/"):
			rec.observe("http.result_ms", d)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			rec.observe("http.job_ms", d)
		}
	})
}

// tracedTransport counts what the client sees on the wire: job polls,
// accepted (computing) submissions, forwarded submissions and redirects.
type tracedTransport struct {
	rec   *recorder
	inner http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch {
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/jobs/"):
		t.rec.add("client.polls", 1)
	case req.Method == http.MethodPost && req.URL.Path == "/v1/experiments":
		t.rec.add("client.submits", 1)
		if resp.StatusCode == http.StatusAccepted {
			t.rec.add("client.jobs", 1)
		}
		if resp.Header.Get(servedByHeader) != "" {
			t.rec.add("client.forwarded", 1)
		}
	case resp.StatusCode == http.StatusTemporaryRedirect:
		t.rec.add("client.redirects", 1)
	}
	return resp, nil
}

// parentKey carries the open erasure-coded operation into the shard
// wrappers beneath it, so their spans count as its children.
type parentKey struct{}

// parentSpan collects the child intervals of one erasure-coded operation.
type parentSpan struct {
	mu       sync.Mutex
	children []interval
	failed   int
}

func (p *parentSpan) child(iv interval, failed bool) {
	p.mu.Lock()
	p.children = append(p.children, iv)
	if failed {
		p.failed++
	}
	p.mu.Unlock()
}

// tracedShard wraps one shard root of the erasure-coded tier.
type tracedShard struct {
	blob.Backend
	rec *recorder
}

func (b tracedShard) Get(ctx context.Context, key string) ([]byte, error) {
	t := time.Now()
	v, err := b.Backend.Get(ctx, key)
	b.end(ctx, "blob.get_ms", t, err)
	return v, err
}

func (b tracedShard) Put(ctx context.Context, key string, payload []byte) error {
	t := time.Now()
	err := b.Backend.Put(ctx, key, payload)
	b.end(ctx, "blob.put_ms", t, err)
	return err
}

func (b tracedShard) end(ctx context.Context, name string, t time.Time, err error) {
	now := time.Now()
	b.rec.observe(name, now.Sub(t))
	if p, ok := ctx.Value(parentKey{}).(*parentSpan); ok {
		p.child(interval{t, now}, err != nil)
	}
}

// tracedEC wraps the erasure-coded backend the result cache publishes to
// and fills from. A Get here is exactly one shared-tier fill.
type tracedEC struct {
	blob.Backend
	rec *recorder
}

// RepairStats forwards the wrapped backend's repair counters, so the
// daemon's /metrics output is the same with and without the wrapper.
func (b tracedEC) RepairStats() blob.RepairStats {
	if rs, ok := b.Backend.(blob.RepairStatter); ok {
		return rs.RepairStats()
	}
	return blob.RepairStats{}
}

func (b tracedEC) Get(ctx context.Context, key string) ([]byte, error) {
	p := &parentSpan{}
	t := time.Now()
	v, err := b.Backend.Get(context.WithValue(ctx, parentKey{}, p), key)
	end := time.Now()
	if err == nil {
		b.rec.observe("resultcache.shared_fill_ms", end.Sub(t))
		p.mu.Lock()
		b.rec.observe("ec.get_self_ms", selfTime(interval{t, end}, p.children))
		if p.failed > 0 {
			b.rec.add("ec.reconstructs", 1)
		}
		p.mu.Unlock()
	}
	return v, err
}

func (b tracedEC) Put(ctx context.Context, key string, payload []byte) error {
	p := &parentSpan{}
	t := time.Now()
	err := b.Backend.Put(context.WithValue(ctx, parentKey{}, p), key, payload)
	end := time.Now()
	p.mu.Lock()
	b.rec.observe("ec.put_self_ms", selfTime(interval{t, end}, p.children))
	p.mu.Unlock()
	return err
}

// scrape is one parsed /metrics exposition: series (name plus label set,
// exactly as printed) to value.
type scrape map[string]float64

func fetchMetrics(ctx context.Context, hc *http.Client, base string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: http %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns after minus before, series by series.
func (after scrape) sub(before scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums other into s.
func (s scrape) add(other scrape) {
	for k, v := range other {
		s[k] += v
	}
}

// histPercentile estimates percentile p of a daemon histogram (power-of-two
// buckets, cumulative le counts) by linear interpolation inside the bucket
// that holds the rank. label is the series' label pair, e.g. class="sweep".
func (s scrape) histPercentile(name, label string, p float64) float64 {
	total := s[fmt.Sprintf("%s_count{%s}", name, label)]
	if total <= 0 {
		return 0
	}
	want := p / 100 * total
	lo, prevCum := 0.0, 0.0
	for edge := 1.0; edge <= 1<<40; edge *= 2 {
		key := fmt.Sprintf("%s_bucket{%s,le=\"%.0f\"}", name, label, edge)
		cum, ok := s[key]
		if !ok {
			break
		}
		if cum >= want && cum > prevCum {
			return lo + (edge-lo)*(want-prevCum)/(cum-prevCum)
		}
		lo, prevCum = edge, cum
	}
	return lo
}

// histMean is a histogram's sum over its count (0 when empty).
func (s scrape) histMean(name, label string) float64 {
	n := s[fmt.Sprintf("%s_count{%s}", name, label)]
	if n <= 0 {
		return 0
	}
	return s[fmt.Sprintf("%s_sum{%s}", name, label)] / n
}
