// Package serve is the HTTP layer of the eccsimd daemon: it turns every
// experiment of internal/sim/report into a submit/poll/fetch API backed by
// the bounded job queue (internal/jobqueue) and the content-addressed
// result cache (internal/resultcache). The wire types — request/response
// bodies, error envelope, status strings — live in pkg/api, shared with the
// public Go client so server and client cannot drift.
//
// The API surface:
//
//	POST   /v1/experiments      submit a config; 202 + job id (200 on cache hit)
//	GET    /v1/experiments      list known experiment ids
//	GET    /v1/schemes          list the resilience scheme registry
//	GET    /v1/jobs/{id}        poll a job's status
//	DELETE /v1/jobs/{id}        cancel a job (interrupts a running engine)
//	GET    /v1/results/{hash}   fetch a result document by content address
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus-text counters and histograms
//	GET    /debug/vars          expvar (Go runtime memstats etc.)
//
// Determinism is the API contract: a request is identified by the SHA-256
// of its normalized config (seed included, worker count and timeout
// excluded), and the same hash always maps to byte-identical result bytes —
// the second identical submission is served from cache without
// recomputation. Cancellation is the flip side of the contract: a canceled
// or deadline-expired job writes nothing to the cache, so a resubmission
// recomputes from scratch rather than serving a partial result.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/cluster"
	"eccparity/internal/ecc"
	"eccparity/internal/jobqueue"
	"eccparity/internal/resultcache"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// Guardrails against absurd budgets taking a worker hostage. The paper's
// full budget (400k cycles, 60k warmup, 2–4k trials) sits far below all of
// them.
const (
	MaxCycles = 100_000_000
	MaxWarmup = 10_000_000
	MaxTrials = 1_000_000
)

// The 429 Retry-After hint is derived from observed compute latency (a
// queue slot frees roughly one mean compute time from now), clamped to
// these bounds so a cold server still says something sane and a pathological
// histogram cannot tell clients to go away for hours.
const (
	retryAfterFloorSeconds   = 1
	retryAfterCeilingSeconds = 60
)

// MaxSweepPointsDefault caps how many points one sweep may expand to when
// Options.MaxSweepPoints is unset.
const MaxSweepPointsDefault = 256

// Options configures a Server.
type Options struct {
	// Workers bounds each experiment's internal simulation/Monte Carlo
	// pool (≤0 = NumCPU). Excluded from result identity.
	Workers int
	// JobWorkers is the number of experiments executing concurrently
	// (default 2 — each job already fans out over Workers goroutines).
	JobWorkers int
	// QueueCap bounds the submission backlog (default 16).
	QueueCap int
	// CacheDir enables the on-disk result layer ("" = memory only).
	CacheDir string
	// CacheMaxBytes bounds the on-disk layer; least-recently-used entries
	// are evicted past it (0 = unbounded).
	CacheMaxBytes int64
	// JobTimeout is the default per-job execution deadline, counted from
	// job start, and the ceiling for per-request timeout_seconds overrides
	// (0 = no default deadline).
	JobTimeout time.Duration
	// MaxSweepPoints caps how many points one sweep may expand to
	// (default MaxSweepPointsDefault).
	MaxSweepPoints int
	// FIFO disables the fair scheduler and dispatches jobs in global
	// submission order, ignoring priority and submitter — the pre-scheduler
	// behavior, kept as the load generator's A/B baseline (-scheduler fifo).
	FIFO bool
	// Progress receives grid/campaign progress tickers (nil = silent).
	Progress io.Writer

	// NodeID and Peers turn the daemon into one replica of a static
	// consistent-hash fleet (see peer.go). Peers must list every replica
	// including this one; NodeID names this replica's entry. Leaving Peers
	// empty keeps single-node behavior — wire format and /metrics output
	// byte-identical to a non-clustered build.
	NodeID string
	Peers  []cluster.Node
	// VNodes is the virtual-node count per replica on the ring
	// (≤0 = cluster.DefaultVNodes). Must match across the fleet.
	VNodes int
	// Blob enables the shared result tier: every computed result is
	// published (write-behind) to this backend and cache misses read
	// through it, so replicas serve each other's results byte-identically.
	Blob blob.Backend
}

// Server wires the queue, cache and metrics behind one http.Handler.
type Server struct {
	opts    Options
	queue   *jobqueue.Queue
	cache   *resultcache.Cache
	metrics *metrics
	mux     *http.ServeMux
	peers   *peering // nil = single-node

	// exec is the daemon-wide evaluation store every job worker computes
	// through, so points that need the same evaluation matrix share it —
	// and fill it together while it is in flight (the sweep fast path).
	exec *report.Executor

	// Sweep registry: a sweep is immutable after registration (its point
	// list and job ids are fixed at submit); live point status is read from
	// the queue on demand, so sweepMu only guards the map itself.
	sweepMu   sync.Mutex
	sweeps    map[string]*sweepRec
	nextSweep uint64
}

// New builds a Server and starts its worker pool.
func New(o Options) (*Server, error) {
	if o.JobWorkers <= 0 {
		o.JobWorkers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = MaxSweepPointsDefault
	}
	var cacheOpts []resultcache.Option
	if o.Blob != nil {
		cacheOpts = append(cacheOpts, resultcache.WithShared(o.Blob))
	}
	cache, err := resultcache.New(o.CacheDir, o.CacheMaxBytes, cacheOpts...)
	if err != nil {
		return nil, err
	}
	var peers *peering
	if len(o.Peers) > 0 {
		if peers, err = newPeering(o.NodeID, o.Peers, o.VNodes); err != nil {
			return nil, err
		}
	}
	newQueue := jobqueue.New
	if o.FIFO {
		newQueue = jobqueue.NewFIFO
	}
	s := &Server{
		opts:    o,
		queue:   newQueue(o.QueueCap, o.JobWorkers),
		cache:   cache,
		metrics: newMetrics(),
		peers:   peers,
		sweeps:  map[string]*sweepRec{},
		exec:    report.NewExecutor(o.Progress),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs and waits for the backlog to finish; if ctx
// expires first, straggler jobs are canceled — their engines stop at the
// next context checkpoint and nothing partial reaches the cache (see
// jobqueue.Queue.Drain). Call http.Server.Shutdown first so no new
// submissions race the close.
func (s *Server) Drain(ctx context.Context) error {
	err := s.queue.Drain(ctx)
	// Flush write-behind publishes after the backlog settles, so a SIGTERM
	// drain leaves every computed result in the shared tier for the
	// surviving replicas.
	s.cache.FlushShared()
	return err
}

// canonicalConfig is exactly what gets hashed into the result address.
// report.Params omits Workers from its JSON encoding, and TimeoutSeconds is
// never copied in, keeping the identity worker-count- and deadline-free.
type canonicalConfig struct {
	Experiment string        `json:"experiment"`
	Params     report.Params `json:"params"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "invalid request body: %v", err)
		return
	}
	if !report.Known(req.Experiment) {
		httpError(w, http.StatusBadRequest, api.CodeUnknownExperiment, "unknown experiment %q (GET /v1/experiments lists valid ids)", req.Experiment)
		return
	}
	if req.Cycles < 0 || req.Warmup < 0 || req.Trials < 0 || req.TimeoutSeconds < 0 {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "cycles, warmup, trials and timeout_seconds must be non-negative (zero selects the default)")
		return
	}
	if req.Cycles > MaxCycles || req.Warmup > MaxWarmup || req.Trials > MaxTrials {
		httpError(w, http.StatusBadRequest, api.CodeBudgetTooLarge, "budget too large (max cycles %d, warmup %d, trials %d)", MaxCycles, MaxWarmup, MaxTrials)
		return
	}
	if !api.ValidPriority(req.Priority) {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "unknown priority %q (valid: interactive, sweep, batch)", req.Priority)
		return
	}

	// NormalizedFor folds the scheme fields into the canonical identity:
	// requests without a scheme normalize exactly as they always have (same
	// content-address), and equivalent scheme spellings — omitted vs explicit
	// default, options formatting — collapse to one cache entry.
	p, err := report.Params{
		Cycles: req.Cycles, Warmup: req.Warmup, Trials: req.Trials,
		Seed: req.Seed, CSV: req.CSV,
		Scheme: req.Scheme, SchemeOptions: string(req.SchemeOptions),
	}.NormalizedFor(req.Experiment)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeUnknownScheme, "%v (GET /v1/schemes lists valid schemes)", err)
		return
	}
	cc := canonicalConfig{Experiment: req.Experiment, Params: p}
	key, err := resultcache.Key(cc)
	if err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "hashing config: %v", err)
		return
	}

	// Fast path: already computed — no job needed. In a fleet this checks
	// memory, local disk, and the shared blob tier.
	if _, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, api.SubmitResponse{Status: api.StatusDone, ResultHash: key, Cached: true})
		return
	}

	// Cluster routing: a submission whose content address is owned by
	// another replica is forwarded there, so identical configs submitted
	// anywhere coalesce on one node's singleflight. Relayed requests stay
	// local (one-hop bound), and an unreachable owner falls through to
	// local execution — determinism makes the duplicate compute safe.
	if owner, local := s.owner(key); !local && !relayed(r) {
		if s.forwardSubmit(w, r, owner, req) {
			return
		}
	}

	id, err := s.queue.SubmitWith(s.pointTask(req.Experiment, p, key, false), jobqueue.SubmitOptions{
		Submitter: req.Submitter,
		Origin:    r.Header.Get(relayHeader),
		Class:     priorityClass(req.Priority, jobqueue.ClassInteractive),
		Timeout:   s.effectiveTimeout(req.TimeoutSeconds),
	})
	switch {
	case errors.Is(err, jobqueue.ErrFull):
		s.reject429(w, req.Experiment)
		return
	case errors.Is(err, jobqueue.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "submit: %v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, api.SubmitResponse{JobID: s.wireID(id), Status: api.StatusQueued, ResultHash: key})
}

// priorityClass maps a wire priority to its scheduling class; the empty
// string takes the endpoint's default (interactive for single submissions,
// sweep for sweep points). Callers validate with api.ValidPriority first.
func priorityClass(p string, def jobqueue.Class) jobqueue.Class {
	switch p {
	case api.PriorityInteractive:
		return jobqueue.ClassInteractive
	case api.PrioritySweep:
		return jobqueue.ClassSweep
	case api.PriorityBatch:
		return jobqueue.ClassBatch
	default:
		return def
	}
}

// pointTask builds the queue task that computes one (experiment, params)
// result into the cache under key. sweepPoint tags the sweep-point compute
// counter on top of the shared latency histogram.
func (s *Server) pointTask(experiment string, p report.Params, key string, sweepPoint bool) jobqueue.Task {
	return func(ctx context.Context) (any, error) {
		start := time.Now()
		_, hit, err := s.cache.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
			return s.compute(ctx, key, experiment, p)
		})
		if err != nil {
			return nil, err
		}
		if !hit {
			s.metrics.observe(experiment, float64(time.Since(start).Nanoseconds())/1e6)
			if sweepPoint {
				s.metrics.sweepPointsComputed.Add(1)
			}
		}
		return key, nil
	}
}

// reject429 answers a saturated-queue submission: backpressure, not
// failure — the client should retry after the hinted delay.
func (s *Server) reject429(w http.ResponseWriter, experiment string) {
	s.metrics.rejectedFull.Add(1)
	w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterFor(experiment)))
	httpError(w, http.StatusTooManyRequests, api.CodeQueueFull, "queue full, retry later")
}

// retryAfterFor derives the Retry-After hint in whole seconds from observed
// compute latency: a queue slot frees roughly one mean compute time from
// now. The submitted experiment's own histogram mean is used first, the
// all-experiment mean as fallback, and the result is clamped to the
// floor/ceiling so a cold server hints 1s and a degenerate histogram cannot
// push clients out for hours.
func (s *Server) retryAfterFor(experiment string) int {
	ms := s.metrics.meanLatencyMS(experiment)
	if ms <= 0 {
		ms = s.metrics.meanLatencyMS("")
	}
	secs := int(math.Ceil(ms / 1000))
	if secs < retryAfterFloorSeconds {
		return retryAfterFloorSeconds
	}
	if secs > retryAfterCeilingSeconds {
		return retryAfterCeilingSeconds
	}
	return secs
}

// effectiveTimeout resolves a request's timeout_seconds against the
// server's default: the default is a ceiling, a zero request inherits it.
func (s *Server) effectiveTimeout(seconds float64) time.Duration {
	req := time.Duration(seconds * float64(time.Second))
	switch {
	case req <= 0:
		return s.opts.JobTimeout
	case s.opts.JobTimeout > 0 && req > s.opts.JobTimeout:
		return s.opts.JobTimeout
	default:
		return req
	}
}

// compute runs one experiment and renders its canonical result document.
// The bytes depend only on (experiment, params-identity): report.Runner
// guarantees worker-count invariance, json.Marshal of the data rows is
// deterministic (struct order, sorted map keys), and MarshalIndent re-
// indents the embedded RawMessage uniformly. A canceled ctx propagates out
// before anything is cached.
//
// Every compute runs through the one shared Executor, so points on any job
// worker reuse — or help fill — each other's evaluation matrices;
// report.Executor guarantees the rendered bytes are identical to a
// standalone Runner's.
func (s *Server) compute(ctx context.Context, key, experiment string, p report.Params) ([]byte, error) {
	p.Workers = s.opts.Workers
	rep, err := s.exec.Run(ctx, experiment, p)
	if err != nil {
		return nil, err
	}
	var data json.RawMessage
	if rep.Data != nil {
		if data, err = json.Marshal(rep.Data); err != nil {
			return nil, err
		}
	}
	doc := api.Result{
		Hash:       key,
		Experiment: experiment,
		Params: api.Params{
			Cycles: p.Cycles, Warmup: p.Warmup, Trials: p.Trials, Seed: p.Seed, CSV: p.CSV,
			Scheme: p.Scheme, SchemeOptions: p.SchemeOptions,
		},
		Report: api.Report{Experiment: rep.Experiment, Title: rep.Title, Text: rep.Text, Data: data},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := api.ExperimentList{Experiments: []api.ExperimentInfo{}}
	for _, id := range report.IDs() {
		out.Experiments = append(out.Experiments, api.ExperimentInfo{
			ID: id, Title: report.Title(id),
			SchemeAware:   report.SchemeAware(id),
			DefaultScheme: report.DefaultScheme(id),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSchemes serves the resilience scheme registry: every key a
// scheme-aware submission or sweep axis accepts, with the constructor
// options each scheme takes.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	out := api.SchemeList{Schemes: []api.SchemeInfo{}}
	for _, e := range ecc.Entries() {
		info := api.SchemeInfo{Key: e.Key, Description: e.Description, ChipKillCorrect: e.ChipKillCorrect}
		for _, o := range e.Options {
			info.Options = append(info.Options, api.SchemeOption{Name: o.Name, Type: o.Type, Description: o.Description})
		}
		out.Schemes = append(out.Schemes, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// jobStatus converts a queue snapshot to its wire form. Zero Started and
// Finished times mean "not yet" and are omitted on the wire (nil pointers)
// rather than serialized as 0001-01-01T00:00:00Z.
func jobStatus(snap jobqueue.Snapshot) api.JobStatus {
	js := api.JobStatus{
		ID: snap.ID, Status: string(snap.Status), Error: snap.Error,
		Created: snap.Created,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		js.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		js.Finished = &t
	}
	if hash, ok := snap.Result.(string); ok {
		js.ResultHash = hash
	}
	return js
}

// wireJobStatus renders a snapshot with its cluster-wire id ("a1:job-3" in
// a fleet, the bare id single-node).
func (s *Server) wireJobStatus(snap jobqueue.Snapshot) api.JobStatus {
	js := jobStatus(snap)
	js.ID = s.wireID(js.ID)
	return js
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	node, local, remote := s.routeID(r.PathValue("id"))
	if remote && !relayed(r) {
		s.proxyToNode(w, r, node)
		return
	}
	snap, ok := s.queue.Get(local)
	if !ok {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.wireJobStatus(snap))
}

// handleCancel implements DELETE /v1/jobs/{id}. A queued job is terminal in
// the response already; a running job's engine observes the cancel at its
// next context checkpoint (milliseconds), so the response may still read
// "running" — clients poll to the terminal "canceled". Idempotent: deleting
// a finished job returns its final state unchanged.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	node, id, remote := s.routeID(r.PathValue("id"))
	if remote && !relayed(r) {
		s.proxyToNode(w, r, node)
		return
	}
	if _, ok := s.queue.Get(id); !ok {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if s.queue.Cancel(id) {
		s.metrics.cancelRequests.Add(1)
	}
	snap, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, s.wireJobStatus(snap))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if b, ok := s.cache.Peek(hash); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}
	if s.clustered() && !relayed(r) {
		// The local tiers missed. The hash owner is the replica most likely
		// to hold the bytes — redirect the client there, unless it asked not
		// to (no_redirect=1: it already followed a redirect into a dead
		// node), in which case fan the read out to the peers ourselves.
		owner, local := s.owner(hash)
		if !local && r.URL.Query().Get("no_redirect") != "1" {
			s.metrics.resultsRedirected.Add(1)
			http.Redirect(w, r, owner.Addr+"/v1/results/"+hash, http.StatusTemporaryRedirect)
			return
		}
		if s.proxyResultRead(w, r, hash) {
			return
		}
	}
	httpError(w, http.StatusNotFound, api.CodeNotFound, "no result for hash %q", hash)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":{"code":%q,"message":"encoding response: %v"}}`, api.CodeInternal, err)
		return
	}
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
