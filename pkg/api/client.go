package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Reconnect/retry backoff bounds: the first retry waits about
// reconnectBase, each subsequent one doubles, capped at reconnectCap, and
// every delay is jittered so a fleet of clients watching the same server
// does not reconnect in lockstep after a restart.
const (
	reconnectBase = 100 * time.Millisecond
	reconnectCap  = 5 * time.Second
)

// jittered scales d by a uniform factor in [0.5, 1.0). Durations too short
// to halve (d < 2ns, including 0) are returned as-is: rand.Int63n panics on
// a non-positive bound, and there is nothing useful to jitter at that scale.
func jittered(d time.Duration) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)))
}

// sleepCtx waits for d or until ctx is done, reporting whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// callbackError marks an error returned by a WatchSweep callback so the
// reconnect loop surfaces it verbatim instead of retrying it.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// Client is a thin, dependency-free client for the eccsimd v1 API. The
// zero-ish value from NewClient is ready to use; methods are safe for
// concurrent use.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8087".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient when nil.
	HTTPClient *http.Client
}

// NewClient returns a Client for the daemon at baseURL (trailing slash
// tolerated).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// Submit posts an experiment config. A cache hit returns Cached=true with
// no job; otherwise poll (or Wait on) the returned JobID.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/experiments", req, &out)
	return out, err
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Cancel asks the server to cancel a job. A queued job becomes terminal
// immediately; a running job's engine is interrupted at its next context
// checkpoint (milliseconds). The returned status is the state at response
// time — poll or Wait to observe the terminal "canceled". Canceling an
// already-terminal job is a no-op returning its final state.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// Result fetches a content-addressed result document.
func (c *Client) Result(ctx context.Context, hash string) (Result, error) {
	var out Result
	err := c.do(ctx, http.MethodGet, "/v1/results/"+hash, nil, &out)
	return out, err
}

// ResultBytes fetches the raw result document — the byte-identical form
// the determinism contract is stated over.
func (c *Client) ResultBytes(ctx context.Context, hash string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/results/"+hash, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Experiments lists the registered experiment ids.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out ExperimentList
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// ListSchemes lists the resilience scheme registry: every key a
// scheme-aware submission (SubmitRequest.Scheme) or sweep scheme axis
// accepts, with each scheme's constructor options.
func (c *Client) ListSchemes(ctx context.Context) ([]SchemeInfo, error) {
	var out SchemeList
	if err := c.do(ctx, http.MethodGet, "/v1/schemes", nil, &out); err != nil {
		return nil, err
	}
	return out.Schemes, nil
}

// jobWaitWindow is how long one GET /v1/jobs/{id}?wait= asks the server to
// hold the request; the server caps it (60s), and Wait repeats it.
const jobWaitWindow = 30 * time.Second

// Wait blocks until a job reaches a terminal state or ctx is done. It
// long-polls GET /v1/jobs/{id}?wait=: the server answers the moment the job
// finishes, so a job that finishes inside one window costs exactly one
// request. poll (default 50ms when ≤ 0) is only the pause before the next
// request after a response that is not terminal — a window that expired,
// or a server that ignores ?wait and answers at once — so the client never
// spins. The terminal snapshot is returned even for failed/canceled jobs;
// only transport and ctx errors are errors.
func (c *Client) Wait(ctx context.Context, jobID string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	path := "/v1/jobs/" + jobID + "?wait=" + jobWaitWindow.String()
	var last JobStatus
	for {
		var js JobStatus
		if err := c.do(ctx, http.MethodGet, path, nil, &js); err != nil {
			if ctx.Err() != nil {
				return last, ctx.Err()
			}
			return JobStatus{}, err
		}
		if Terminal(js.Status) {
			return js, nil
		}
		last = js
		if !sleepCtx(ctx, poll) {
			return js, ctx.Err()
		}
	}
}

// Run is the submit→wait→fetch convenience: it returns the Result document
// whether it was cached or freshly computed, and surfaces a failed or
// canceled job as an error.
func (c *Client) Run(ctx context.Context, req SubmitRequest, poll time.Duration) (Result, error) {
	sr, err := c.Submit(ctx, req)
	if err != nil {
		return Result{}, err
	}
	hash := sr.ResultHash
	if !sr.Cached {
		js, err := c.Wait(ctx, sr.JobID, poll)
		if err != nil {
			return Result{}, err
		}
		if js.Status != StatusDone {
			return Result{}, fmt.Errorf("api: job %s finished %s: %s", js.ID, js.Status, js.Error)
		}
		if js.ResultHash != "" {
			hash = js.ResultHash
		}
	}
	return c.Result(ctx, hash)
}

// SubmitSweep posts a base config plus axes; the server expands the
// cross-product and runs every point. When every point was already cached
// the returned status is terminal immediately; otherwise poll Sweep or
// block on WaitSweep.
func (c *Client) SubmitSweep(ctx context.Context, req SweepRequest) (SweepStatus, error) {
	var out SweepStatus
	err := c.do(ctx, http.MethodPost, "/v1/sweeps", req, &out)
	return out, err
}

// Sweep fetches a sweep's current status. A wait > 0 long-polls: the server
// holds the request until a point completes, the sweep turns terminal, or
// wait elapses — one round trip per progress step instead of poll-spinning.
func (c *Client) Sweep(ctx context.Context, id string, wait time.Duration) (SweepStatus, error) {
	path := "/v1/sweeps/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var out SweepStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// CancelSweep cancels every non-terminal point of a sweep: queued points
// end immediately, running engines stop at their next context checkpoint
// (milliseconds). Idempotent; the returned status is the state at response
// time, so briefly-still-running points may need one more Sweep call to
// observe "canceled".
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var out SweepStatus
	err := c.do(ctx, http.MethodDelete, "/v1/sweeps/"+id, nil, &out)
	return out, err
}

// WatchSweep streams a sweep's per-point completions: it opens the chunked
// NDJSON event stream (GET /v1/sweeps/{id}?watch=), invokes fn for every
// "point" event as it arrives — the first finished points surface in
// milliseconds, long before the grid completes — and reconnects watch-sized
// windows until the sweep turns terminal or ctx is done. The terminal
// aggregate status is returned; a non-nil error from fn aborts the stream
// and is returned verbatim. wait ≤ 0 defaults to 10s windows.
//
// Transport failures and mid-stream cuts (a server restart, a dropped
// proxy) are retried with capped exponential backoff plus jitter rather
// than a tight reconnect loop; the delay resets after any successful
// window. API-level errors (*Error, e.g. an unknown sweep id) abort
// immediately.
func (c *Client) WatchSweep(ctx context.Context, id string, wait time.Duration, fn func(SweepPoint) error) (SweepStatus, error) {
	if wait <= 0 {
		wait = 10 * time.Second
	}
	// Every window replays the already-terminal points first (so a late
	// watcher sees the full picture); dedupe by index so fn observes each
	// point exactly once across reconnects.
	seen := map[int]bool{}
	delay := reconnectBase
	for {
		st, err := c.watchOnce(ctx, id, wait, seen, fn)
		switch {
		case err == nil:
			delay = reconnectBase
			if Terminal(st.Status) {
				return st, nil
			}
			if err := ctx.Err(); err != nil {
				return st, err
			}
		default:
			var cbErr *callbackError
			if errors.As(err, &cbErr) {
				return SweepStatus{}, cbErr.err
			}
			var apiErr *Error
			if errors.As(err, &apiErr) {
				return SweepStatus{}, err
			}
			if ctx.Err() != nil {
				return SweepStatus{}, ctx.Err()
			}
			if !sleepCtx(ctx, jittered(delay)) {
				return SweepStatus{}, ctx.Err()
			}
			if delay *= 2; delay > reconnectCap {
				delay = reconnectCap
			}
		}
	}
}

// watchOnce consumes one watch window and returns its closing aggregate
// status.
func (c *Client) watchOnce(ctx context.Context, id string, wait time.Duration, seen map[int]bool, fn func(SweepPoint) error) (SweepStatus, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/sweeps/"+id+"?watch="+wait.String(), nil)
	if err != nil {
		return SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepStatus{}, decodeError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	var last SweepStatus
	sawFinal := false
	for {
		var ev SweepEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return SweepStatus{}, fmt.Errorf("api: decode sweep event: %w", err)
		}
		switch {
		case ev.Type == "point" && ev.Point != nil:
			if !seen[ev.Point.Index] {
				seen[ev.Point.Index] = true
				if fn != nil {
					if err := fn(*ev.Point); err != nil {
						return SweepStatus{}, &callbackError{err}
					}
				}
			}
		case ev.Type == "sweep" && ev.Sweep != nil:
			last, sawFinal = *ev.Sweep, true
		}
	}
	if !sawFinal {
		return SweepStatus{}, fmt.Errorf("api: sweep %s event stream ended without a final sweep event", id)
	}
	return last, nil
}

// WaitSweep long-polls a sweep until it reaches a terminal aggregate state
// or ctx is done. Each round waits up to wait on the server side (default
// 10s when ≤ 0). The terminal status is returned even when points failed or
// were canceled; only transport and ctx errors are errors.
func (c *Client) WaitSweep(ctx context.Context, id string, wait time.Duration) (SweepStatus, error) {
	if wait <= 0 {
		wait = 10 * time.Second
	}
	for {
		st, err := c.Sweep(ctx, id, wait)
		if err != nil {
			return SweepStatus{}, err
		}
		if Terminal(st.Status) {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// RunSweep is the batched submit→wait→fetch convenience: it submits the
// sweep, long-polls it to completion, and returns the terminal status plus
// one Result per point, index-aligned with Points. A sweep that ends with
// failed or canceled points returns the status and an error (with nil
// results) so a partial grid is never mistaken for the full figure.
func (c *Client) RunSweep(ctx context.Context, req SweepRequest, wait time.Duration) (SweepStatus, []Result, error) {
	st, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return SweepStatus{}, nil, err
	}
	if !Terminal(st.Status) {
		if st, err = c.WaitSweep(ctx, st.ID, wait); err != nil {
			return st, nil, err
		}
	}
	if st.Status != StatusDone {
		return st, nil, fmt.Errorf("api: sweep %s finished %s (%d/%d points done)",
			st.ID, st.Status, st.Progress.Done, st.Progress.Total)
	}
	results := make([]Result, len(st.Points))
	for i, pt := range st.Points {
		res, err := c.Result(ctx, pt.ResultHash)
		if err != nil {
			return st, nil, fmt.Errorf("api: sweep %s point %d: %w", st.ID, i, err)
		}
		results[i] = res
	}
	return st, results, nil
}

// do sends one request and decodes the 2xx body into out (skipped when out
// is nil); non-2xx responses decode the error envelope into *Error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decode %s %s response: %w", method, path, err)
	}
	return nil
}

func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("api: encode request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil && method == http.MethodGet {
		if retry, ok := c.redirectRetry(ctx, path, err); ok {
			return retry, nil
		}
	}
	return resp, err
}

// redirectRetry handles a failed cross-node redirect hop: a clustered
// server may answer a read with 307 to the owning replica, and that
// replica can die between issuing the redirect and the client following
// it. When the transport error's URL points at a different host than
// BaseURL, the origin is retried once with no_redirect=1 — it then
// proxies or answers definitively itself.
func (c *Client) redirectRetry(ctx context.Context, path string, err error) (*http.Response, bool) {
	var ue *url.Error
	if !errors.As(err, &ue) || strings.HasPrefix(ue.URL, c.BaseURL+"/") || ue.URL == c.BaseURL {
		return nil, false
	}
	if !sleepCtx(ctx, jittered(reconnectBase)) {
		return nil, false
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path+sep+"no_redirect=1", nil)
	if rerr != nil {
		return nil, false
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, rerr := hc.Do(req)
	if rerr != nil {
		return nil, false
	}
	return resp, true
}

// decodeError turns a non-2xx response into an *Error, falling back to the
// raw body when the envelope doesn't parse (e.g. a proxy's HTML).
func decodeError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env ErrorEnvelope
	if err := json.Unmarshal(b, &env); err == nil && env.Error.Code != "" {
		return &Error{StatusCode: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	return &Error{StatusCode: resp.StatusCode, Code: CodeInternal,
		Message: fmt.Sprintf("unexpected response: %s", strings.TrimSpace(string(b)))}
}
