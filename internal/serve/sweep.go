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

// sweepPointRec is one expanded point's record: the point and — unless it
// was served from cache at submission — the job computing it. In a fleet a
// point may execute on its ring owner instead: node/remoteJob/remote then
// track the remote job, and an owner that stops answering gets the point
// adopted (admitted again here), after which the point looks like any local
// one.
type sweepPointRec struct {
	point
	jobID string // local job; "" = cache hit at submit, or remote

	// Remote execution state (fleet sweeps only), guarded by sweepRec.mu.
	node      string        // replica executing the point ("" = local)
	remoteJob string        // the point's wire job id on that replica
	remote    api.JobStatus // last polled remote status
	adopting  bool          // an adoption is in flight
}

// sweepRec is the aggregate object behind /v1/sweeps/{id}. The point list,
// each point's config and the submission options are fixed at
// registration; mu guards the per-point job fields, which pollRemote
// rewrites as owners answer or die. Live local status is derived from the
// queue per read.
type sweepRec struct {
	id      string
	created time.Time
	opts    jobqueue.SubmitOptions // every local point's, adopted ones included

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
	if !decodeBody(w, r, &req) {
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
	points, err := report.ExpandSweep(b.Experiment, requestParams(b),
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
	sw := &sweepRec{id: id, created: time.Now(), opts: jobqueue.SubmitOptions{
		Group:     id,
		Submitter: b.Submitter,
		Class:     priorityClass(b.Priority, jobqueue.ClassSweep),
		Timeout:   s.effectiveTimeout(b.TimeoutSeconds),
	}}
	sw.points = make([]sweepPointRec, 0, len(points))
	cached := 0
	for _, xp := range points {
		pt, err := newPoint(xp.Experiment, xp.Params)
		var a admission
		if err == nil {
			a, err = s.admit(r.Context(), pt, sw.opts, b.TimeoutSeconds, !relayed(r))
		}
		if err != nil {
			// All-or-nothing admission: roll the partial sweep back — local
			// jobs by group, remote points by best-effort per-job cancels —
			// so a 429 leaves nothing of it running anywhere.
			s.queue.CancelGroup(id)
			for _, rec := range sw.points {
				if rec.node != "" {
					s.remoteJob(r.Context(), rec.node, rec.remoteJob, (*api.Client).Cancel)
				}
			}
			s.admitFailed(w, err, xp.Experiment)
			return
		}
		rec := sweepPointRec{point: pt, jobID: a.local}
		switch {
		case a.resp.Cached:
			cached++
		case a.node != "":
			rec.node, rec.remoteJob = a.node, a.resp.JobID
			rec.remote = api.JobStatus{ID: a.resp.JobID, Status: a.resp.Status}
		}
		sw.points = append(sw.points, rec)
	}

	s.sweepMu.Lock()
	s.sweeps[id] = sw
	s.sweepMu.Unlock()
	s.metrics.sweepsSubmitted.Add(1)
	s.metrics.sweepPointsExpanded.Add(uint64(len(sw.points)))
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
	p := &st.Progress
	for i, rec := range sw.points {
		pt := api.SweepPoint{Index: i, Experiment: rec.experiment, ResultHash: rec.key, Params: wireParams(rec.params)}
		if rec.node != "" {
			pt.JobID, pt.Status, pt.Error = rec.remoteJob, rec.remote.Status, rec.remote.Error
		} else if rec.jobID == "" {
			pt.Status, pt.Cached = api.StatusDone, true
			p.Cached++
		} else if snap, ok := s.queue.Get(rec.jobID); ok {
			pt.JobID, pt.Status, pt.Error = s.wireID(rec.jobID), string(snap.Status), snap.Error
		} else {
			// Unreachable while jobs are never evicted; stated for safety.
			pt.Status, pt.Error = api.StatusFailed, "job record missing"
		}
		switch pt.Status {
		case api.StatusQueued:
			p.Queued++
		case api.StatusRunning:
			p.Running++
		case api.StatusDone:
			p.Done++
		case api.StatusFailed:
			p.Failed++
		case api.StatusCanceled:
			p.Canceled++
		}
		st.Points = append(st.Points, pt)
	}
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
// points whose owner can no longer answer: the point goes through
// admission again here, under the sweep's own submission options and never
// forwarded, and from then on behaves like any local point. Adoption is
// idempotent-by-content — if the dead owner actually finished the compute,
// the result is found in the shared tier (and the point reads done) or
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
		js, ok := s.remoteJob(ctx, pb.node, pb.job, (*api.Client).Job)
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
		pt := rec.point
		sw.mu.Unlock()

		a, err := s.admit(ctx, pt, sw.opts, 0, false)
		sw.mu.Lock()
		rec.adopting = false
		// A full or draining queue leaves the point remote; the next poll
		// retries the owner and, failing that, adoption.
		if err == nil {
			s.metrics.peerAdoptedPoints.Add(1)
			if a.resp.Cached {
				rec.remote = api.JobStatus{ID: rec.remoteJob, Status: api.StatusDone, ResultHash: pt.key}
			} else {
				rec.node, rec.remoteJob, rec.remote = "", "", api.JobStatus{}
				rec.jobID = a.local
			}
		}
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
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		writeJSON(w, http.StatusOK, s.sweepStatus(sw))
		return
	}
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait < 0 {
		httpError(w, http.StatusBadRequest, api.CodeInvalidRequest, "wait must be a non-negative duration (e.g. 5s): got %q", waitStr)
		return
	}
	initial := -1
	st, ok := s.followSweep(r, sw, wait, func(st api.SweepStatus) bool {
		n := st.Progress.Done + st.Progress.Failed + st.Progress.Canceled
		if initial < 0 {
			initial = n
		}
		return !api.Terminal(st.Status) && n == initial
	})
	if ok {
		writeJSON(w, http.StatusOK, st)
	}
}

// followSweep is the one wait step of ?wait= and ?watch=. It reads the
// sweep's status and hands it to more, and while more returns true it
// blocks until the sweep may have changed, then reads again. It returns the
// last status read once more returns false or the window (capped at
// maxSweepWait) elapses; ok=false means the client went away first.
func (s *Server) followSweep(r *http.Request, sw *sweepRec, window time.Duration, more func(api.SweepStatus) bool) (st api.SweepStatus, ok bool) {
	timer := time.NewTimer(min(window, maxSweepWait))
	defer timer.Stop()
	// Peer-executed points complete without bumping the local group
	// channel; poll their owners on a ticker while any are live.
	var tickCh <-chan time.Time
	if sw.liveRemote() {
		tick := time.NewTicker(remotePollInterval)
		defer tick.Stop()
		tickCh = tick.C
	}
	for {
		// Grab the group channel before reading status: a transition
		// between the read and the wait closes the channel already held, so
		// no completion can slip through unobserved.
		ch := s.queue.ChangedGroup(sw.id)
		if st = s.sweepStatus(sw); !more(st) {
			return st, true
		}
		select {
		case <-ch:
		case <-tickCh:
			s.pollRemote(r.Context(), sw)
		case <-timer.C:
			return st, true
		case <-r.Context().Done():
			return st, false
		}
	}
}

// handleSweepWatch streams per-point completions as chunked NDJSON: one
// api.SweepEvent line per terminal point — already-terminal points first,
// then each new completion the moment its group channel bumps — and a final
// "sweep" line when the sweep turns terminal or the watch window elapses.
// Each line is flushed immediately, so a client sees its first results in
// milliseconds even when the grid takes minutes.
func (s *Server) handleSweepWatch(w http.ResponseWriter, r *http.Request, sw *sweepRec, watch time.Duration) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var werr error
	emit := func(ev api.SweepEvent) {
		if werr = enc.Encode(ev); werr == nil && flusher != nil {
			flusher.Flush()
		}
	}
	sent := make([]bool, len(sw.points))
	st, ok := s.followSweep(r, sw, watch, func(st api.SweepStatus) bool {
		for i := range st.Points {
			if sent[i] || !api.Terminal(st.Points[i].Status) {
				continue
			}
			sent[i] = true
			if emit(api.SweepEvent{Type: "point", Point: &st.Points[i]}); werr != nil {
				return false
			}
		}
		return !api.Terminal(st.Status)
	})
	if ok && werr == nil {
		emit(api.SweepEvent{Type: "sweep", Sweep: &st})
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
	// Points executing on peers are canceled owner-side, best-effort, and
	// take the status the owner answers with. No adoption: a cancel must
	// never resurrect a dead owner's point as a fresh local job. An
	// unreachable owner's jobs die with it, which under a cancel is the
	// desired end state.
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
		js, ok := s.remoteJob(r.Context(), x.node, x.job, (*api.Client).Cancel)
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
