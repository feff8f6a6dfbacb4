package serve

// Sweep endpoints: the paper's headline figures are parameter grids — the
// same experiment across channel counts, ECC schemes, and fault-rate axes —
// so the daemon accepts the whole grid as one request. POST /v1/sweeps
// expands base × axes server-side (internal/sim/report.ExpandSweep), runs
// every point as its own job on the shared bounded queue, and content-
// addresses every point individually in the result cache: overlapping
// sweeps and re-runs hit cache per point, not per sweep. Admission is
// all-or-nothing — if the queue cannot hold every uncached point, the
// already-submitted ones are canceled and the whole sweep gets the same
// 429 backpressure a single submission would.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"eccparity/internal/jobqueue"
	"eccparity/internal/resultcache"
	"eccparity/internal/sim"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// maxSweepWait caps how long one GET /v1/sweeps/{id}?wait= or
// GET /v1/jobs/{id}?wait= request may hold its connection; clients
// long-poll in rounds.
const maxSweepWait = 60 * time.Second

// remotePollInterval paces the owner polls for sweep points executing on
// peers while a wait/watch request holds the connection.
const remotePollInterval = 200 * time.Millisecond

// sweepPointRec is one expanded point's record: its config, its content
// address, and — unless it was served from cache at submission — the job
// computing it. In a fleet a point may execute on its ring owner instead:
// node/remoteJob/remote then track the remote job, and an owner that stops
// answering gets the point adopted (resubmitted locally), after which the
// point looks like any local one.
type sweepPointRec struct {
	experiment string
	params     report.Params
	hash       string
	jobID      string // local job; "" = cache hit at submit, or remote

	// Remote execution state (fleet sweeps only), guarded by sweepRec.mu.
	node      string        // replica executing the point ("" = local)
	remoteJob string        // the point's wire job id on that replica
	remote    api.JobStatus // last polled remote status
	adopting  bool          // an adoption submit is in flight
}

// sweepRec is the aggregate object behind /v1/sweeps/{id}. The point list
// and each point's config are fixed at registration; mu guards the remote
// fields, which pollRemote rewrites as owners answer or die. Live local
// status is derived from the queue per read.
type sweepRec struct {
	id      string
	created time.Time

	mu     sync.Mutex
	points []sweepPointRec
}

// liveRemote reports whether any point is still executing on a peer — the
// signal for wait/watch loops to poll (remote completions do not bump the
// local group channel).
func (sw *sweepRec) liveRemote() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for i := range sw.points {
		if sw.points[i].node != "" && !api.Terminal(sw.points[i].remote.Status) {
			return true
		}
	}
	return false
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "invalid request body: %v", err)
		return
	}
	b := req.Base
	if b.Cycles < 0 || b.Warmup < 0 || b.Trials < 0 || b.TimeoutSeconds < 0 {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "base cycles, warmup, trials and timeout_seconds must be non-negative (zero selects the default)")
		return
	}
	if !api.ValidPriority(b.Priority) {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "unknown priority %q (valid: interactive, sweep, batch)", b.Priority)
		return
	}
	points, err := report.ExpandSweep(b.Experiment,
		report.Params{
			Cycles: b.Cycles, Warmup: b.Warmup, Trials: b.Trials, Seed: b.Seed, CSV: b.CSV,
			Scheme: b.Scheme, SchemeOptions: string(b.SchemeOptions),
		},
		report.SweepAxes{
			Experiments: req.Axes.Experiment,
			Schemes:     req.Axes.Scheme,
			Cycles:      req.Axes.Cycles,
			Warmup:      req.Axes.Warmup,
			Trials:      req.Axes.Trials,
			Seeds:       req.Axes.Seed,
		}, s.opts.MaxSweepPoints)
	if err != nil {
		var ce *sim.ConfigError
		code, status := api.CodeInvalidRequest, http.StatusBadRequest
		if errors.As(err, &ce) {
			switch ce.Field {
			case "experiment":
				code = api.CodeUnknownExperiment
			case "scheme", "scheme_options":
				code = api.CodeUnknownScheme
			case "axes":
				code = api.CodeBudgetTooLarge
			}
		}
		httpError(w, status, code, "invalid sweep: %v", err)
		return
	}
	for i, pt := range points {
		if pt.Params.Cycles > MaxCycles || pt.Params.Warmup > MaxWarmup || pt.Params.Trials > MaxTrials {
			httpError(w, http.StatusBadRequest, api.CodeBudgetTooLarge,
				"point %d (%s) budget too large (max cycles %d, warmup %d, trials %d)",
				i, pt.Experiment, MaxCycles, MaxWarmup, MaxTrials)
			return
		}
	}

	s.sweepMu.Lock()
	s.nextSweep++
	id := fmt.Sprintf("sweep-%d", s.nextSweep)
	s.sweepMu.Unlock()

	// Sweep points default to the low-priority sweep class so big grids
	// interleave behind interactive traffic instead of starving it; an
	// explicit base priority (e.g. batch) overrides. The submitter carries
	// through so two tenants' sweeps drain round-robin.
	subOpts := jobqueue.SubmitOptions{
		Group:     id,
		Submitter: b.Submitter,
		Class:     priorityClass(b.Priority, jobqueue.ClassSweep),
		Timeout:   s.effectiveTimeout(b.TimeoutSeconds),
	}
	// Point priority on the remote wire: a forwarded point is a single
	// submission over there, whose endpoint default is interactive — spell
	// out the sweep default so remote points schedule like local ones.
	pointPriority := b.Priority
	if pointPriority == "" {
		pointPriority = api.PrioritySweep
	}
	recs := make([]sweepPointRec, 0, len(points))
	cached := 0
	// All-or-nothing admission: roll the partial sweep back — local jobs by
	// group, remote points by best-effort per-job cancels — so a 429 leaves
	// nothing of it running anywhere.
	rollback := func() {
		s.queue.CancelGroup(id)
		for i := range recs {
			if recs[i].node != "" {
				s.remoteCancel(r.Context(), recs[i].node, recs[i].remoteJob)
			}
		}
	}
	for _, pt := range points {
		key, err := resultcache.Key(canonicalConfig{Experiment: pt.Experiment, Params: pt.Params})
		if err != nil {
			rollback()
			httpError(w, http.StatusInternalServerError, api.CodeInternal, "hashing config: %v", err)
			return
		}
		rec := sweepPointRec{experiment: pt.Experiment, params: pt.Params, hash: key}
		if _, ok := s.cache.Get(key); ok {
			cached++
			recs = append(recs, rec)
			continue
		}
		// Fleet routing: a point owned by another replica executes there —
		// identical points from overlapping sweeps coalesce on the owner's
		// singleflight fleet-wide. An unreachable or saturated owner falls
		// through to local execution.
		if owner, local := s.owner(key); !local && !relayed(r) {
			resp, ok := s.remoteSubmit(r.Context(), owner, api.SubmitRequest{
				Experiment: pt.Experiment,
				Cycles:     pt.Params.Cycles, Warmup: pt.Params.Warmup,
				Trials: pt.Params.Trials, Seed: pt.Params.Seed, CSV: pt.Params.CSV,
				Scheme:         pt.Params.Scheme,
				SchemeOptions:  json.RawMessage(pt.Params.SchemeOptions),
				TimeoutSeconds: b.TimeoutSeconds,
				Priority:       pointPriority,
				Submitter:      b.Submitter,
			})
			if ok {
				if resp.Cached {
					cached++
				} else {
					rec.node = owner.ID
					rec.remoteJob = resp.JobID
					rec.remote = api.JobStatus{ID: resp.JobID, Status: api.StatusQueued}
				}
				recs = append(recs, rec)
				continue
			}
		}
		jobID, err := s.queue.SubmitWith(s.pointTask(pt.Experiment, pt.Params, key, true), subOpts)
		if err != nil {
			rollback()
			switch {
			case errors.Is(err, jobqueue.ErrFull):
				s.reject429(w, pt.Experiment)
			case errors.Is(err, jobqueue.ErrClosed):
				httpError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining")
			default:
				httpError(w, http.StatusInternalServerError, api.CodeInternal, "submit sweep point: %v", err)
			}
			return
		}
		rec.jobID = jobID
		recs = append(recs, rec)
	}

	sw := &sweepRec{id: id, created: time.Now(), points: recs}
	s.sweepMu.Lock()
	s.sweeps[id] = sw
	s.sweepMu.Unlock()
	s.metrics.sweepsSubmitted.Add(1)
	s.metrics.sweepPointsExpanded.Add(uint64(len(recs)))
	s.metrics.sweepPointsCached.Add(uint64(cached))

	st := s.sweepStatus(sw)
	code := http.StatusAccepted
	if api.Terminal(st.Status) {
		// Every point came from cache: the sweep is done at submission.
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// lookupSweep returns the registered sweep or nil.
func (s *Server) lookupSweep(id string) *sweepRec {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	return s.sweeps[id]
}

// sweepStatus derives a sweep's wire status: cached points are done by
// construction, remote points report their last polled owner status, and
// everything else reads its local job's current state from the queue.
func (s *Server) sweepStatus(sw *sweepRec) api.SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := api.SweepStatus{
		ID: s.wireID(sw.id), Created: sw.created,
		Progress: api.SweepProgress{Total: len(sw.points)},
		Points:   make([]api.SweepPoint, 0, len(sw.points)),
	}
	for i, rec := range sw.points {
		pt := api.SweepPoint{
			Index: i, Experiment: rec.experiment, ResultHash: rec.hash,
			Params: api.Params{
				Cycles: rec.params.Cycles, Warmup: rec.params.Warmup,
				Trials: rec.params.Trials, Seed: rec.params.Seed, CSV: rec.params.CSV,
				Scheme: rec.params.Scheme, SchemeOptions: rec.params.SchemeOptions,
			},
		}
		if rec.node != "" {
			pt.JobID = rec.remoteJob
			pt.Status, pt.Error = rec.remote.Status, rec.remote.Error
			if pt.Status == "" {
				pt.Status = api.StatusQueued
			}
			switch pt.Status {
			case api.StatusQueued:
				st.Progress.Queued++
			case api.StatusRunning:
				st.Progress.Running++
			case api.StatusDone:
				st.Progress.Done++
			case api.StatusFailed:
				st.Progress.Failed++
			case api.StatusCanceled:
				st.Progress.Canceled++
			}
			st.Points = append(st.Points, pt)
			continue
		}
		if rec.jobID == "" {
			pt.Status, pt.Cached = api.StatusDone, true
			st.Progress.Done++
			st.Progress.Cached++
		} else if snap, ok := s.queue.Get(rec.jobID); !ok {
			// Unreachable while jobs are never evicted; stated for safety.
			pt.Status, pt.Error = api.StatusFailed, "job record missing"
			st.Progress.Failed++
		} else {
			pt.JobID = s.wireID(rec.jobID)
			pt.Status, pt.Error = string(snap.Status), snap.Error
			switch snap.Status {
			case jobqueue.StatusQueued:
				st.Progress.Queued++
			case jobqueue.StatusRunning:
				st.Progress.Running++
			case jobqueue.StatusDone:
				st.Progress.Done++
			case jobqueue.StatusFailed:
				st.Progress.Failed++
			case jobqueue.StatusCanceled:
				st.Progress.Canceled++
			}
		}
		st.Points = append(st.Points, pt)
	}
	p := st.Progress
	switch {
	case p.Done+p.Failed+p.Canceled < p.Total:
		st.Status = api.StatusRunning
	case p.Canceled > 0:
		st.Status = api.StatusCanceled
	case p.Failed > 0:
		st.Status = api.StatusFailed
	default:
		st.Status = api.StatusDone
	}
	return st
}

// pollRemote refreshes every live remote point of a sweep and adopts the
// points whose owner can no longer answer: the point is resubmitted locally
// into the sweep's group and from then on behaves like any local point.
// Adoption is idempotent-by-content — if the dead owner actually finished
// the compute, the local re-run is served from the shared tier or
// recomputed byte-identically, so the worst case is duplicated work.
func (s *Server) pollRemote(ctx context.Context, sw *sweepRec) {
	if !s.clustered() {
		return
	}
	type probe struct {
		i         int
		node, job string
	}
	var probes []probe
	sw.mu.Lock()
	for i := range sw.points {
		rec := &sw.points[i]
		if rec.node != "" && !api.Terminal(rec.remote.Status) && !rec.adopting {
			probes = append(probes, probe{i, rec.node, rec.remoteJob})
		}
	}
	sw.mu.Unlock()
	for _, pb := range probes {
		js, ok := s.remoteJobStatus(ctx, pb.node, pb.job)
		sw.mu.Lock()
		rec := &sw.points[pb.i]
		if rec.node != pb.node || rec.adopting {
			sw.mu.Unlock() // another poller got here first
			continue
		}
		if ok {
			rec.remote = js
			sw.mu.Unlock()
			continue
		}
		rec.adopting = true
		experiment, params, hash := rec.experiment, rec.params, rec.hash
		sw.mu.Unlock()

		jobID, err := s.queue.SubmitWith(s.pointTask(experiment, params, hash, true), jobqueue.SubmitOptions{
			Group:   sw.id,
			Class:   jobqueue.ClassSweep,
			Timeout: s.opts.JobTimeout,
		})
		sw.mu.Lock()
		rec = &sw.points[pb.i]
		rec.adopting = false
		if err == nil {
			rec.node, rec.remoteJob, rec.remote = "", "", api.JobStatus{}
			rec.jobID = jobID
			s.metrics.peerAdoptedPoints.Add(1)
		}
		// A full or draining queue leaves the point remote; the next poll
		// retries the owner and, failing that, adoption.
		sw.mu.Unlock()
	}
}

// handleSweepGet serves GET /v1/sweeps/{id}. Without parameters it answers
// immediately. With ?wait=<duration> it long-polls: the response is held
// until a point reaches a terminal state (relative to the request's entry
// snapshot), the sweep turns terminal, or the wait elapses — so a client
// polling point completions costs one request per step, not a poll spin.
// With ?watch=<duration> it streams instead: newline-delimited
// api.SweepEvent JSON, one "point" line per terminal point as it lands and
// a closing "sweep" line (see handleSweepWatch).
//
// Both paths block on the sweep's own ChangedGroup channel, not the global
// broadcast: a transition in an unrelated job or another sweep neither
// wakes this handler nor triggers a rescan of this sweep's point list.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	node, localID, remote := s.routeID(r.PathValue("id"))
	if remote && !relayed(r) {
		// The sweep registry lives on the coordinator replica; route the
		// read (including long-polls and watch streams) straight there.
		s.proxyToNode(w, r, node)
		return
	}
	sw := s.lookupSweep(localID)
	if sw == nil {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	s.pollRemote(r.Context(), sw)
	if watchStr := r.URL.Query().Get("watch"); watchStr != "" {
		watch, err := time.ParseDuration(watchStr)
		if err != nil || watch < 0 {
			httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "watch must be a non-negative duration (e.g. 30s): got %q", watchStr)
			return
		}
		s.handleSweepWatch(w, r, sw, watch)
		return
	}
	terminalCount := func(st api.SweepStatus) int {
		return st.Progress.Done + st.Progress.Failed + st.Progress.Canceled
	}
	st := s.sweepStatus(sw)
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		writeJSON(w, http.StatusOK, st)
		return
	}
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait < 0 {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "wait must be a non-negative duration (e.g. 5s): got %q", waitStr)
		return
	}
	if wait > maxSweepWait {
		wait = maxSweepWait
	}
	initial := terminalCount(st)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	// Remote completions do not bump the local group channel, so a sweep
	// with points executing on peers is additionally polled on a ticker.
	tickCh := (<-chan time.Time)(nil)
	if sw.liveRemote() {
		tick := time.NewTicker(remotePollInterval)
		defer tick.Stop()
		tickCh = tick.C
	}
	expired := false
	for !expired && !api.Terminal(st.Status) && terminalCount(st) == initial {
		// Grab the group channel before re-reading status: a transition
		// between the read and the wait closes the channel we already hold,
		// so no completion can slip through unobserved.
		ch := s.queue.ChangedGroup(sw.id)
		if st = s.sweepStatus(sw); api.Terminal(st.Status) || terminalCount(st) != initial {
			break
		}
		select {
		case <-ch:
		case <-tickCh:
			s.pollRemote(r.Context(), sw)
		case <-timer.C:
			expired = true
		case <-r.Context().Done():
			return
		}
		st = s.sweepStatus(sw)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSweepWatch streams per-point completions as chunked NDJSON: one
// api.SweepEvent line per terminal point — already-terminal points first,
// then each new completion the moment its group channel bumps — and a final
// "sweep" line when the sweep turns terminal or the watch window elapses.
// Each line is flushed immediately, so a client sees its first results in
// milliseconds even when the grid takes minutes.
func (s *Server) handleSweepWatch(w http.ResponseWriter, r *http.Request, sw *sweepRec, watch time.Duration) {
	if watch > maxSweepWait {
		watch = maxSweepWait
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev api.SweepEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	timer := time.NewTimer(watch)
	defer timer.Stop()
	// Peer-executed points complete without bumping the local group
	// channel; poll their owners on a ticker while any are live.
	tickCh := (<-chan time.Time)(nil)
	if sw.liveRemote() {
		tick := time.NewTicker(remotePollInterval)
		defer tick.Stop()
		tickCh = tick.C
	}
	sent := make([]bool, len(sw.points))
	for {
		// Grab the group channel before scanning so no completion between
		// the scan and the wait is lost.
		ch := s.queue.ChangedGroup(sw.id)
		st := s.sweepStatus(sw)
		for i := range st.Points {
			if sent[i] || !api.Terminal(st.Points[i].Status) {
				continue
			}
			sent[i] = true
			if !emit(api.SweepEvent{Type: "point", Point: &st.Points[i]}) {
				return
			}
		}
		if api.Terminal(st.Status) {
			emit(api.SweepEvent{Type: "sweep", Sweep: &st})
			return
		}
		select {
		case <-ch:
		case <-tickCh:
			s.pollRemote(r.Context(), sw)
		case <-timer.C:
			emit(api.SweepEvent{Type: "sweep", Sweep: &st})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleSweepCancel implements DELETE /v1/sweeps/{id}: every non-terminal
// point is canceled through the group plumbing — queued points end
// immediately, running engines stop at their next context checkpoint
// (milliseconds). Idempotent, like per-job DELETE.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	node, localID, remote := s.routeID(r.PathValue("id"))
	if remote && !relayed(r) {
		s.proxyToNode(w, r, node)
		return
	}
	sw := s.lookupSweep(localID)
	if sw == nil {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if n := s.queue.CancelGroup(sw.id); n > 0 {
		s.metrics.sweepCancels.Add(1)
		s.metrics.cancelRequests.Add(uint64(n))
	}
	// Points executing on peers are canceled owner-side, best-effort, then
	// polled once so the response reflects what the owners acknowledged.
	sw.mu.Lock()
	type rc struct{ node, job string }
	var remotes []rc
	for i := range sw.points {
		rec := &sw.points[i]
		if rec.node != "" && !api.Terminal(rec.remote.Status) {
			remotes = append(remotes, rc{rec.node, rec.remoteJob})
		}
	}
	sw.mu.Unlock()
	for _, x := range remotes {
		s.remoteCancel(r.Context(), x.node, x.job)
		// Refresh without adoption — a cancel must never resurrect a dead
		// owner's point as a fresh local job. An unreachable owner's jobs
		// die with it, which under a cancel is the desired end state.
		js, ok := s.remoteJobStatus(r.Context(), x.node, x.job)
		sw.mu.Lock()
		for i := range sw.points {
			rec := &sw.points[i]
			if rec.node != x.node || rec.remoteJob != x.job {
				continue
			}
			if ok {
				rec.remote = js
			} else {
				rec.remote.Status = api.StatusCanceled
			}
		}
		sw.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, s.sweepStatus(sw))
}
