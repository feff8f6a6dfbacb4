package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccparity/internal/jobqueue"
	"eccparity/pkg/api"
)

// heldJob queues a job on s that stays running until release is closed,
// then finishes done with result hash "held".
func heldJob(t *testing.T, s *Server, release <-chan struct{}) string {
	t.Helper()
	id, err := s.queue.Submit(func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "held", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// newArrivalServer is newServer (one job worker) with a handler that
// signals arrived just before it serves a GET /v1/jobs/{id}, so a test can
// release a job only once the long-poll is in the server.
func newArrivalServer(t *testing.T) (*Server, *httptest.Server, <-chan struct{}) {
	t.Helper()
	s, err := New(Options{Workers: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts, arrived
}

func getJob(t *testing.T, url string) (int, api.JobStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	code, b := getBody(t, url)
	var js api.JobStatus
	if code == http.StatusOK {
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatal(err)
		}
	}
	return code, js, time.Since(start)
}

// TestJobLongPollHeldUntilDone: GET /v1/jobs/{id}?wait= on a running job
// is answered when the job finishes, with its terminal status.
func TestJobLongPollHeldUntilDone(t *testing.T) {
	s, ts, arrived := newArrivalServer(t)

	release := make(chan struct{})
	id := heldJob(t, s, release)
	type reply struct {
		code int
		js   api.JobStatus
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=30s")
		if err != nil {
			t.Error(err)
			got <- reply{}
			return
		}
		defer resp.Body.Close()
		var js api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
			t.Error(err)
		}
		got <- reply{resp.StatusCode, js}
	}()
	<-arrived
	close(release)
	r := <-got
	if r.code != http.StatusOK || r.js.Status != api.StatusDone || r.js.ResultHash != "held" {
		t.Fatalf("long-poll answered %d %+v, want 200 done with the job's result hash", r.code, r.js)
	}
}

// TestJobLongPollWindowExpires: a long-poll on a job that does not finish
// inside the window answers its current status — running, or queued behind
// it — once the window has elapsed.
func TestJobLongPollWindowExpires(t *testing.T) {
	s, ts := newServer(t, Options{Workers: 1, JobWorkers: 1})
	release := make(chan struct{})
	defer close(release)
	running := heldJob(t, s, release)
	queued := heldJob(t, s, release)
	for {
		changed := s.queue.Changed()
		if snap, _ := s.queue.Get(running); snap.Status == jobqueue.StatusRunning {
			break
		}
		<-changed
	}
	const window = 40 * time.Millisecond
	for id, want := range map[string]string{running: api.StatusRunning, queued: api.StatusQueued} {
		code, js, took := getJob(t, ts.URL+"/v1/jobs/"+id+"?wait="+window.String())
		if code != http.StatusOK || js.Status != want {
			t.Errorf("expired long-poll on %s answered %d %q, want 200 %q", id, code, js.Status, want)
		}
		if took < window {
			t.Errorf("long-poll on a %s job returned after %v, before its %v window", want, took, window)
		}
	}
}

// TestJobLongPollBadDuration: a wait that is not a non-negative duration
// is a 400 invalid_request, whatever state the job is in.
func TestJobLongPollBadDuration(t *testing.T) {
	s, ts := newServer(t, Options{Workers: 1, JobWorkers: 1})
	release := make(chan struct{})
	id := heldJob(t, s, release)
	close(release)
	for _, bad := range []string{"soon", "-1s", "10"} {
		code, b := getBody(t, ts.URL+"/v1/jobs/"+id+"?wait="+bad)
		if code != http.StatusBadRequest || !strings.Contains(string(b), api.CodeInvalidRequest) {
			t.Errorf("?wait=%s: %d %s, want 400 %s", bad, code, b, api.CodeInvalidRequest)
		}
	}
}

// TestJobLongPollThroughPeer: a job owned by another replica is long-polled
// through the replica the client talks to. The proxy forwards ?wait=, so
// the owner holds the request: for the whole window while the job runs,
// and until the job is done otherwise.
func TestJobLongPollThroughPeer(t *testing.T) {
	nodes, _ := startCluster(t, 2, nil)
	owner := nodes[1]
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // before the fleet drains, should the test fail first
	wire := owner.srv.wireID(heldJob(t, owner.srv, release))
	if !strings.HasPrefix(wire, owner.id+":") {
		t.Fatalf("wire id %q does not name its owner %s", wire, owner.id)
	}
	url := nodes[0].url + "/v1/jobs/" + wire

	const window = 40 * time.Millisecond
	code, js, took := getJob(t, url+"?wait="+window.String())
	if code != http.StatusOK || js.Status != api.StatusRunning || took < window {
		t.Fatalf("proxied long-poll on a running job: %d %q after %v, want 200 running after its %v window", code, js.Status, took, window)
	}

	type reply struct {
		code     int
		servedBy string
		js       api.JobStatus
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get(url + "?wait=30s")
		if err != nil {
			t.Error(err)
			got <- reply{}
			return
		}
		defer resp.Body.Close()
		var js api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
			t.Error(err)
		}
		got <- reply{resp.StatusCode, resp.Header.Get(servedByHeader), js}
	}()
	releaseOnce()
	r := <-got
	if r.code != http.StatusOK || r.js.Status != api.StatusDone || r.js.ID != wire || r.servedBy != owner.id {
		t.Fatalf("proxied long-poll answered %d (served by %q) %+v, want 200 done %s from %s", r.code, r.servedBy, r.js, wire, owner.id)
	}
}

// TestClientWaitOneRequest: Client.Wait on a job that finishes inside one
// long-poll window sends exactly one GET /v1/jobs/{id}.
func TestClientWaitOneRequest(t *testing.T) {
	s, ts, arrived := newArrivalServer(t)

	release := make(chan struct{})
	id := heldJob(t, s, release)
	gets := &countingTransport{base: http.DefaultTransport}
	c := &api.Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: gets}}
	go func() {
		<-arrived
		close(release)
	}()
	js, err := c.Wait(context.Background(), id, time.Millisecond)
	if err != nil || js.Status != api.StatusDone {
		t.Fatalf("Wait: %+v, %v; want done", js, err)
	}
	if n := gets.jobGets.Load(); n != 1 {
		t.Errorf("Wait sent %d GET /v1/jobs requests for a job that finished inside the window, want 1", n)
	}
}

// countingTransport counts the GET /v1/jobs/{id} requests it carries.
type countingTransport struct {
	base    http.RoundTripper
	jobGets atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
		c.jobGets.Add(1)
	}
	return c.base.RoundTrip(r)
}
