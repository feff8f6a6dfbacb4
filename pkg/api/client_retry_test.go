package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyTransport fails the first failures round trips with a transport
// error, then delegates to the real transport.
type flakyTransport struct {
	failures int32
	attempts int32
	base     http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	n := atomic.AddInt32(&f.attempts, 1)
	if n <= atomic.LoadInt32(&f.failures) {
		return nil, errors.New("connection refused (simulated)")
	}
	return f.base.RoundTrip(r)
}

func watchServer(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

func writeEvent(t *testing.T, w http.ResponseWriter, ev SweepEvent) {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

func finalSweep(status string, pts ...SweepPoint) SweepEvent {
	st := SweepStatus{ID: "sw-1", Status: status, Points: pts,
		Progress: SweepProgress{Total: len(pts), Done: len(pts)}}
	return SweepEvent{Type: "sweep", Sweep: &st}
}

// WatchSweep must survive transport failures by reconnecting with backoff —
// not returning the first dial error — and still deliver every point
// exactly once.
func TestWatchSweepReconnectsAfterTransportErrors(t *testing.T) {
	pt := SweepPoint{Index: 0, Status: StatusDone, ResultHash: strings.Repeat("a", 64)}
	srv := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		writeEvent(t, w, SweepEvent{Type: "point", Point: &pt})
		writeEvent(t, w, finalSweep(StatusDone, pt))
	})
	ft := &flakyTransport{failures: 3, base: http.DefaultTransport}
	c := NewClient(srv.URL)
	c.HTTPClient = &http.Client{Transport: ft}

	start := time.Now()
	var calls int32
	st, err := c.WatchSweep(context.Background(), "sw-1", time.Second, func(SweepPoint) error {
		atomic.AddInt32(&calls, 1)
		return nil
	})
	if err != nil {
		t.Fatalf("WatchSweep: %v", err)
	}
	if st.Status != StatusDone || atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("status=%s calls=%d, want done/1", st.Status, calls)
	}
	if got := atomic.LoadInt32(&ft.attempts); got != 4 {
		t.Fatalf("attempts = %d, want 4 (3 failures + 1 success)", got)
	}
	// Three jittered backoffs of ~100/200/400ms sleep at least half of each:
	// a tight reconnect loop would finish in microseconds.
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("elapsed = %v: reconnects were not backed off", elapsed)
	}
}

// A mid-stream cut (window ends without the final sweep event — e.g. the
// server restarted) is retried, and points already delivered are not
// replayed to the callback.
func TestWatchSweepResumesAfterMidStreamCut(t *testing.T) {
	pt0 := SweepPoint{Index: 0, Status: StatusDone, ResultHash: strings.Repeat("a", 64)}
	pt1 := SweepPoint{Index: 1, Status: StatusDone, ResultHash: strings.Repeat("b", 64)}
	var windows int32
	srv := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&windows, 1) == 1 {
			// First window: one point, then the stream dies mid-flight.
			writeEvent(t, w, SweepEvent{Type: "point", Point: &pt0})
			return
		}
		// Reconnect replays the terminal point, then completes.
		writeEvent(t, w, SweepEvent{Type: "point", Point: &pt0})
		writeEvent(t, w, SweepEvent{Type: "point", Point: &pt1})
		writeEvent(t, w, finalSweep(StatusDone, pt0, pt1))
	})
	c := NewClient(srv.URL)
	var got []int
	st, err := c.WatchSweep(context.Background(), "sw-1", time.Second, func(p SweepPoint) error {
		got = append(got, p.Index)
		return nil
	})
	if err != nil {
		t.Fatalf("WatchSweep: %v", err)
	}
	if st.Status != StatusDone || atomic.LoadInt32(&windows) != 2 {
		t.Fatalf("status=%s windows=%d", st.Status, windows)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("callback indexes = %v, want [0 1] exactly once each", got)
	}
}

// API-level errors (unknown sweep id) must fail fast, not retry.
func TestWatchSweepAPIErrorAbortsImmediately(t *testing.T) {
	var hits int32
	srv := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":{"code":"not_found","message":"no such sweep"}}`)
	})
	c := NewClient(srv.URL)
	start := time.Now()
	_, err := c.WatchSweep(context.Background(), "nope", time.Second, nil)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want *Error 404", err)
	}
	if atomic.LoadInt32(&hits) != 1 || time.Since(start) > 2*time.Second {
		t.Fatalf("hits=%d elapsed=%v: API error was retried", hits, time.Since(start))
	}
}

// A callback error aborts the stream and comes back verbatim — it must not
// be mistaken for a transport error and retried.
func TestWatchSweepCallbackErrorVerbatim(t *testing.T) {
	pt := SweepPoint{Index: 0, Status: StatusDone}
	var hits int32
	srv := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		writeEvent(t, w, SweepEvent{Type: "point", Point: &pt})
		writeEvent(t, w, finalSweep(StatusDone, pt))
	})
	c := NewClient(srv.URL)
	sentinel := errors.New("stop right there")
	_, err := c.WatchSweep(context.Background(), "sw-1", time.Second, func(SweepPoint) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel verbatim", err)
	}
	if atomic.LoadInt32(&hits) != 1 {
		t.Fatalf("hits = %d: callback error triggered a reconnect", hits)
	}
}

// Context cancellation during a backoff sleep returns promptly.
func TestWatchSweepCtxCancelDuringBackoff(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	c.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.WatchSweep(ctx, "sw-1", time.Second, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v; backoff sleep is not ctx-aware", elapsed)
	}
}

// A GET whose cross-node redirect hop dies is retried against the origin
// with no_redirect=1, so the origin can proxy or answer definitively.
func TestRedirectRetryFallsBackToOrigin(t *testing.T) {
	// An address that refuses connections: a listener we closed.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	res := Result{Hash: strings.Repeat("c", 64), Experiment: "fig8"}
	var direct, noRedirect int32
	origin := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("no_redirect") == "1" {
			atomic.AddInt32(&noRedirect, 1)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(res)
			return
		}
		atomic.AddInt32(&direct, 1)
		http.Redirect(w, r, deadURL+r.URL.Path, http.StatusTemporaryRedirect)
	})
	c := NewClient(origin.URL)
	got, err := c.Result(context.Background(), res.Hash)
	if err != nil {
		t.Fatalf("Result after dead redirect hop: %v", err)
	}
	if got.Hash != res.Hash || got.Experiment != "fig8" {
		t.Fatalf("got %+v, want %+v", got, res)
	}
	if atomic.LoadInt32(&direct) != 1 || atomic.LoadInt32(&noRedirect) != 1 {
		t.Fatalf("direct=%d noRedirect=%d, want 1/1", direct, noRedirect)
	}
}

// A plain connection failure to the origin itself is NOT retried with
// no_redirect — the retry is reserved for failed redirect hops.
func TestNoRedirectRetryOnOriginFailure(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	c.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	_, err := c.Result(context.Background(), strings.Repeat("d", 64))
	if err == nil {
		t.Fatal("expected a transport error")
	}
}

// TestWaitBacksOffWhenServerAnswersEarly: against a server that ignores
// ?wait= and answers at once, Wait still long-polls (every request asks
// for a window) and pauses poll between non-terminal answers instead of
// spinning.
func TestWaitBacksOffWhenServerAnswersEarly(t *testing.T) {
	var calls atomic.Int32
	srv := watchServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("wait") == "" {
			t.Errorf("request %s carries no ?wait=", r.URL)
		}
		st := StatusRunning
		if calls.Add(1) == 3 {
			st = StatusDone
		}
		json.NewEncoder(w).Encode(JobStatus{ID: "job-1", Status: st})
	})
	const poll = 20 * time.Millisecond
	start := time.Now()
	js, err := NewClient(srv.URL).Wait(context.Background(), "job-1", poll)
	if err != nil || js.Status != StatusDone {
		t.Fatalf("Wait: %+v, %v; want done", js, err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("Wait sent %d requests, want 3", n)
	}
	if took := time.Since(start); took < 2*poll {
		t.Errorf("Wait took %v over two early answers, want at least two %v pauses", took, poll)
	}
}
