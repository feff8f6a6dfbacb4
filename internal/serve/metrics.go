package serve

import (
	"fmt"
	"math"
	"net/http"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eccparity/internal/blob"
	"eccparity/internal/jobqueue"
	"eccparity/internal/stats"
)

// metrics aggregates the daemon's observability state. Queue depth and
// cache counters are read live from their owners at scrape time; only the
// per-experiment latency histograms live here (internal/stats.Histogram is
// not safe for concurrent use, so a mutex guards them).
type metrics struct {
	mu      sync.Mutex
	latency map[string]*stats.Histogram // experiment id → compute latency, ms

	// rejectedFull counts 429 backpressure responses; cancelRequests counts
	// accepted DELETE /v1/jobs cancellations.
	rejectedFull   atomic.Uint64
	cancelRequests atomic.Uint64

	// Sweep counters: sweeps accepted, points they expanded to, points
	// served from cache at submission, points computed by sweep jobs, and
	// DELETE /v1/sweeps cancellations.
	sweepsSubmitted     atomic.Uint64
	sweepPointsExpanded atomic.Uint64
	sweepPointsCached   atomic.Uint64
	sweepPointsComputed atomic.Uint64
	sweepCancels        atomic.Uint64

	// Cluster counters (peer.go): submissions forwarded to their ring
	// owner, forwards that fell back to local execution, reads proxied to
	// peers, sweep points adopted from unreachable owners, and result
	// reads answered with a 307 to the hash owner. Emitted only when the
	// server is clustered, so single-node /metrics output is unchanged.
	peerForwarded       atomic.Uint64
	peerForwardFallback atomic.Uint64
	peerProxiedReads    atomic.Uint64
	peerAdoptedPoints   atomic.Uint64
	resultsRedirected   atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{latency: map[string]*stats.Histogram{}}
}

// observe records one experiment computation's latency in milliseconds.
func (m *metrics) observe(experiment string, ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[experiment]
	if !ok {
		h = &stats.Histogram{}
		m.latency[experiment] = h
	}
	h.Add(ms)
}

// meanLatencyMS returns the mean observed compute latency for one
// experiment, or — for experiment "" — across all experiments. 0 means no
// observations yet.
func (m *metrics) meanLatencyMS(experiment string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if experiment != "" {
		if h, ok := m.latency[experiment]; ok {
			return h.Mean()
		}
		return 0
	}
	var sum float64
	var n uint64
	for _, h := range m.latency {
		sum += h.Sum
		n += h.N
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// handleMetrics renders the Prometheus text exposition format. Everything
// the acceptance criteria name is here: queue depth, jobs in flight, cache
// hit/miss/coalesced counters (hit ratio is hits+coalesced over lookups),
// and per-experiment latency histograms on the simulator's power-of-two
// buckets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("eccsimd_queue_depth", "Jobs waiting in the bounded submission queue.", s.queue.Depth())
	gauge("eccsimd_jobs_inflight", "Experiment jobs currently executing; exceeds the job worker count while sweep or batch jobs lend their workers to interactive jobs.", s.queue.InFlight())

	// Scheduler observability: per-class backlog, how long jobs of each
	// class sit queued, and the age of the oldest still-queued job — the
	// starvation signal (a class whose oldest age grows without bound is
	// not being dispatched).
	fmt.Fprintf(&b, "# HELP eccsimd_queue_class_depth Jobs waiting, by scheduling class.\n# TYPE eccsimd_queue_class_depth gauge\n")
	for _, c := range jobqueue.Classes() {
		fmt.Fprintf(&b, "eccsimd_queue_class_depth{class=%q} %d\n", c.String(), s.queue.ClassDepth(c))
	}
	fmt.Fprintf(&b, "# HELP eccsimd_queue_oldest_age_seconds Age of the oldest still-queued job, by scheduling class (0 when the class is empty).\n# TYPE eccsimd_queue_oldest_age_seconds gauge\n")
	for _, c := range jobqueue.Classes() {
		age := 0.0
		if d, ok := s.queue.OldestQueuedAge(c); ok {
			age = d.Seconds()
		}
		fmt.Fprintf(&b, "eccsimd_queue_oldest_age_seconds{class=%q} %.6f\n", c.String(), age)
	}
	b.WriteString("# HELP eccsimd_queue_wait_ms Time jobs spent queued before dispatch, by scheduling class.\n")
	b.WriteString("# TYPE eccsimd_queue_wait_ms histogram\n")
	for _, c := range jobqueue.Classes() {
		h := s.queue.QueueWait(c)
		writeHistogram(&b, "eccsimd_queue_wait_ms", fmt.Sprintf("class=%q", c.String()), &h)
	}

	qc := s.queue.Stats()
	counter("eccsimd_jobs_submitted_total", "Jobs accepted into the queue.", qc.Submitted)
	fmt.Fprintf(&b, "# HELP eccsimd_jobs_total Jobs by terminal status.\n# TYPE eccsimd_jobs_total counter\n")
	fmt.Fprintf(&b, "eccsimd_jobs_total{status=\"done\"} %d\n", qc.Done)
	fmt.Fprintf(&b, "eccsimd_jobs_total{status=\"failed\"} %d\n", qc.Failed)
	fmt.Fprintf(&b, "eccsimd_jobs_total{status=\"canceled\"} %d\n", qc.Canceled)
	counter("eccsimd_jobs_lent_total", "Interactive jobs run inline on the worker of a running sweep or batch job, between its simulation cells.", qc.Lent)
	counter("eccsimd_rejected_full_total", "Submissions rejected with 429 because the queue was saturated.", s.metrics.rejectedFull.Load())
	counter("eccsimd_cancel_requests_total", "Accepted DELETE /v1/jobs cancellations.", s.metrics.cancelRequests.Load())

	counter("eccsimd_sweeps_total", "Sweeps accepted via POST /v1/sweeps.", s.metrics.sweepsSubmitted.Load())
	counter("eccsimd_sweep_points_expanded_total", "Points the accepted sweeps expanded to.", s.metrics.sweepPointsExpanded.Load())
	counter("eccsimd_sweep_points_cached_total", "Sweep points served from the result cache at submission (no job).", s.metrics.sweepPointsCached.Load())
	counter("eccsimd_sweep_points_computed_total", "Sweep points computed by their own job (cache misses).", s.metrics.sweepPointsComputed.Load())
	counter("eccsimd_sweep_cancel_requests_total", "DELETE /v1/sweeps cancellations.", s.metrics.sweepCancels.Load())

	cs := s.cache.Stats()
	counter("eccsimd_cache_hits_total", "Requests served from the result cache (memory or disk).", cs.Hits)
	counter("eccsimd_cache_misses_total", "Requests that had to compute their result.", cs.Misses)
	counter("eccsimd_cache_coalesced_total", "Requests that shared another request's in-flight computation.", cs.Coalesced)
	counter("eccsimd_cache_evicted_total", "Disk entries evicted to stay under the byte budget.", cs.Evicted)
	counter("eccsimd_cache_corrupt_total", "Disk entries that failed their checksum and were recomputed.", cs.Corrupt)
	gauge("eccsimd_cache_entries", "Results held in memory.", cs.Entries)
	gauge("eccsimd_cache_mem_bytes", "Payload bytes held by the memory tier (bounded LRU).", cs.MemBytes)
	gauge("eccsimd_cache_disk_entries", "Results held on disk.", cs.DiskEntries)
	gauge("eccsimd_cache_disk_bytes", "Bytes used by the on-disk result layer.", cs.DiskBytes)
	ratio := 0.0
	if total := cs.Hits + cs.Coalesced + cs.Misses; total > 0 {
		ratio = float64(cs.Hits+cs.Coalesced) / float64(total)
	}
	gauge("eccsimd_cache_hit_ratio", "Fraction of lookups served without recomputation.", fmt.Sprintf("%.6f", ratio))

	// Shared-tier and cluster metrics are emitted only when those features
	// are on, keeping single-node scrape output byte-compatible.
	if s.opts.Blob != nil {
		counter("eccsimd_cache_shared_hits_total", "Lookups served from the shared blob tier.", cs.SharedHits)
		counter("eccsimd_cache_shared_published_total", "Results published (write-behind) to the shared blob tier.", cs.SharedPublished)
		counter("eccsimd_cache_shared_corrupt_total", "Shared blobs that failed their checksum and were deleted.", cs.SharedCorrupt)
		counter("eccsimd_cache_shared_errors_total", "Shared-tier reads or publishes that failed (tier unreachable).", cs.SharedErrors)
		// Erasure-coded tiers additionally report repair activity; a plain
		// single-copy -blob-dir keeps its scrape output unchanged.
		if _, ok := s.opts.Blob.(blob.RepairStatter); ok {
			counter("eccsimd_cache_shared_repaired_total", "Shards rewritten with reconstructed bytes after degraded shared-tier reads.", cs.SharedRepaired)
			counter("eccsimd_cache_shard_errors_total", "Per-shard failures the erasure-coded shared tier absorbed.", cs.ShardErrors)
		}
	}
	if s.clustered() {
		ring := s.peers.ring
		gauge("eccsimd_cluster_nodes", "Replicas in the static member list.", len(ring.Nodes()))
		gauge("eccsimd_cluster_ring_vnodes", "Virtual nodes per replica on the consistent-hash ring.", ring.VNodes())
		gauge("eccsimd_cluster_owned_fraction", "Fraction of content-address space this replica owns.",
			fmt.Sprintf("%.6f", ring.OwnedFraction(s.peers.self.ID)))
		counter("eccsimd_peer_forwarded_total", "Submissions forwarded to their ring owner.", s.metrics.peerForwarded.Load())
		counter("eccsimd_peer_forward_fallback_total", "Forwards that fell back to local execution (owner unreachable or saturated).", s.metrics.peerForwardFallback.Load())
		counter("eccsimd_peer_proxied_reads_total", "Job/sweep/result reads proxied to the replica holding the record.", s.metrics.peerProxiedReads.Load())
		counter("eccsimd_peer_adopted_points_total", "Sweep points adopted locally after their owner stopped answering.", s.metrics.peerAdoptedPoints.Load())
		counter("eccsimd_results_redirected_total", "Result reads answered with a 307 redirect to the hash owner.", s.metrics.resultsRedirected.Load())
	}

	b.WriteString("# HELP eccsimd_experiment_latency_ms Experiment computation latency (cache misses only).\n")
	b.WriteString("# TYPE eccsimd_experiment_latency_ms histogram\n")
	s.metrics.mu.Lock()
	ids := make([]string, 0, len(s.metrics.latency))
	for id := range s.metrics.latency {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		writeHistogram(&b, "eccsimd_experiment_latency_ms", fmt.Sprintf("experiment=%q", id), s.metrics.latency[id])
	}
	s.metrics.mu.Unlock()

	writeSchedLatency(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// Scheduler-latency buckets: the runtime histogram's power-of-two
// nanosecond boundaries from 2^schedLatencyMinExp ns (128 ns) to
// 2^schedLatencyMaxExp ns (about 17 s); longer waits land in +Inf.
const (
	schedLatencyMinExp = 7
	schedLatencyMaxExp = 34
)

// writeSchedLatency exports the runtime's /sched/latencies:seconds
// histogram — how long goroutines sat runnable before a processor ran them,
// since process start — as eccsimd_sched_latency_seconds. It names the
// stage an HTTP handler or poller spends waiting while every processor
// computes. The runtime's fine buckets are merged into power-of-two ones,
// and since it keeps no sum, _sum adds each bucket's lower edge: an
// underestimate.
func writeSchedLatency(b *strings.Builder) {
	sample := []rtmetrics.Sample{{Name: "/sched/latencies:seconds"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindFloat64Histogram {
		return
	}
	h := sample[0].Value.Float64Histogram()
	const name = "eccsimd_sched_latency_seconds"
	fmt.Fprintf(b, "# HELP %s Time goroutines spent runnable before running, since start (runtime/metrics /sched/latencies:seconds; _sum is a lower bound).\n# TYPE %s histogram\n", name, name)
	var cum uint64
	var sum float64
	i := 0
	for exp := schedLatencyMinExp; exp <= schedLatencyMaxExp; exp++ {
		edge := math.Ldexp(1, exp) / 1e9
		// Boundaries are computed the same way by the runtime; the slack
		// only absorbs rounding.
		for ; i < len(h.Counts) && h.Buckets[i+1] <= edge*(1+1e-9); i++ {
			cum += h.Counts[i]
			sum += float64(h.Counts[i]) * math.Max(h.Buckets[i], 0)
		}
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, edge, cum)
	}
	for ; i < len(h.Counts); i++ {
		cum += h.Counts[i]
		sum += float64(h.Counts[i]) * math.Max(h.Buckets[i], 0)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, cum, name, sum, name, cum)
}

// writeHistogram converts one stats.Histogram to Prometheus histogram
// lines under the given metric name and label pair (`key="value"`).
// Bucket 0 holds [0,1) and bucket i holds [2^(i-1), 2^i), so the
// cumulative upper edges are le="1","2","4",… up to the last occupied
// bucket, then le="+Inf".
func writeHistogram(b *strings.Builder, name, label string, h *stats.Histogram) {
	top := 0
	for i, c := range h.Buckets {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	edge := 1.0
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, label, trimFloat(edge), cum)
		edge *= 2
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, h.N)
	fmt.Fprintf(b, "%s_sum{%s} %g\n", name, label, h.Sum)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, label, h.N)
}

// trimFloat renders bucket edges as integers ("1", "2", "4096").
func trimFloat(v float64) string {
	return fmt.Sprintf("%.0f", v)
}
