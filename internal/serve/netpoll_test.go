package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"eccparity/pkg/api"
)

// makeDue moves p's last forced poll a full interval back, so the next
// park is due without waiting out the cadence.
func makeDue(p *netPoller) { p.last.Store(int64(time.Since(p.epoch)) - int64(pollEvery)) }

// awaitClosed fails the test unless ch is closed within 10 s.
func awaitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestNetPollConcurrentParks has goroutines park at once, as the engine
// workers of several jobs do: each forced poll writes one byte and returns
// exactly once, on the one token the reader hands back for it, so the
// parks that report true, the forced-poll count and the tokens consumed
// all agree and no token is left over.
func TestNetPollConcurrentParks(t *testing.T) {
	p := newNetPoller()
	defer p.Close()
	const goroutines, want = 8, 20
	var mu sync.Mutex
	parked := 0
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p.forced.Load() < want && time.Now().Before(deadline) {
				if p.park() {
					mu.Lock()
					parked++
					mu.Unlock()
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	if parked < want {
		t.Fatalf("%d forced polls in 10 s, want %d", parked, want)
	}
	if got := p.forced.Load(); got != uint64(parked) {
		t.Fatalf("forced count %d, but %d parks returned true", got, parked)
	}
	if n := len(p.token); n != 0 {
		t.Fatalf("%d tokens left over after every park returned", n)
	}
}

// TestNetPollCadence pins the rate limit: two forced polls are at least
// pollEvery apart.
func TestNetPollCadence(t *testing.T) {
	p := newNetPoller()
	defer p.Close()
	makeDue(p)
	before := time.Now()
	if !p.park() {
		t.Fatal("a due park did not park")
	}
	if p.park() && time.Since(before) < pollEvery {
		t.Fatal("two forced polls within one interval")
	}
}

// TestNetPollFallback pins the fallback: without a pipe, and after Close,
// park never parks, so the job queue's yield hook calls runtime.Gosched.
func TestNetPollFallback(t *testing.T) {
	t.Run("no pipe", func(t *testing.T) {
		defer func(f func() (*os.File, *os.File, error)) { osPipe = f }(osPipe)
		osPipe = func() (*os.File, *os.File, error) { return nil, nil, errors.New("injected pipe failure") }
		p := newNetPoller()
		makeDue(p)
		if p.park() {
			t.Fatal("parked without a pipe")
		}
		p.Close()
		if p.forced.Load() != 0 {
			t.Fatal("forced poll counted without a pipe")
		}
	})
	t.Run("after Close", func(t *testing.T) {
		p := newNetPoller()
		makeDue(p)
		if !p.park() {
			t.Fatal("a due park did not park")
		}
		p.Close()
		makeDue(p)
		if p.park() {
			t.Fatal("parked after Close")
		}
		if got := p.forced.Load(); got != 1 {
			t.Fatalf("forced count %d, want 1", got)
		}
	})
}

// returnsWithin fails the test unless f returns within awaitClosed's bound;
// f runs on its own goroutine, so a call that blocks forever fails the test
// instead of hanging the binary.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	awaitClosed(t, done, what)
}

// TestNetPollReaderExitsOnClose pins the reader's lifetime to the daemon's:
// Close (and Drain, which calls it) stops the reader goroutine, and a
// second Close is harmless. Close waits for the reader, so each call runs
// under a bound.
func TestNetPollReaderExitsOnClose(t *testing.T) {
	s, err := New(Options{Workers: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	returnsWithin(t, "Close to return", s.Close)
	awaitClosed(t, s.poll.exited, "the reader to exit on Close")
	returnsWithin(t, "a second Close to return", s.Close)

	d, err := New(Options{Workers: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var derr error
	returnsWithin(t, "Drain to return", func() { derr = d.Drain(context.Background()) })
	if derr != nil {
		t.Fatal(derr)
	}
	awaitClosed(t, d.poll.exited, "the reader to exit on Drain")
}

// forcedPolls scrapes eccsimd_net_polls_forced_total from /metrics.
func forcedPolls(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^eccsimd_net_polls_forced_total (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatal("/metrics has no eccsimd_net_polls_forced_total sample")
	}
	return string(m[1])
}

// TestNetPollIdleDaemon runs a real engine job with a P to spare: the gate
// stays shut, so no byte goes through the pipe.
func TestNetPollIdleDaemon(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one P: a single job worker already fills it")
	}
	s, ts := newServer(t, Options{Workers: 1, JobWorkers: 1})
	code, sr := postJSON(t, ts.URL, `{"experiment":"fig10","cycles":2000,"warmup":200,"seed":5}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if js, err := api.NewClient(ts.URL).Wait(context.Background(), sr.JobID, 0); err != nil || js.Status != api.StatusDone {
		t.Fatalf("job: %+v, %v", js, err)
	}
	if got := forcedPolls(t, ts.URL); got != "0" {
		t.Fatalf("eccsimd_net_polls_forced_total %s with one of %d job workers busy, want 0", got, runtime.GOMAXPROCS(0))
	}
	if n := s.poll.forced.Load(); n != 0 {
		t.Fatalf("%d forced polls, want 0", n)
	}
}

// startComputeLoad submits GOMAXPROCS jobs that compute until canceled to
// a daemon with as many job workers, and waits until all of them run.
func startComputeLoad(tb testing.TB, s *Server, c *api.Client) []string {
	tb.Helper()
	ctx := context.Background()
	var ids []string
	for i := range runtime.GOMAXPROCS(0) {
		sr, err := c.Submit(ctx, longBody(int64(9000+i)))
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, sr.JobID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.queue.InFlight() < len(ids) {
		if time.Now().After(deadline) {
			tb.Fatalf("%d of %d compute jobs running after 10 s", s.queue.InFlight(), len(ids))
		}
		time.Sleep(time.Millisecond)
	}
	return ids
}

// TestNetPollForcedUnderCompute wires the whole path: with every job
// worker computing, engine checkpoints force network polls, and /metrics
// counts them.
func TestNetPollForcedUnderCompute(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	s, ts := newServer(t, Options{Workers: 1, JobWorkers: procs})
	c := api.NewClient(ts.URL)
	ids := startComputeLoad(t, s, c)
	deadline := time.Now().Add(10 * time.Second)
	for s.poll.forced.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no forced poll in 10 s with every job worker computing")
		}
		time.Sleep(time.Millisecond)
	}
	if got := forcedPolls(t, ts.URL); got == "0" {
		t.Fatal("/metrics shows no forced poll")
	}
	for _, id := range ids {
		if _, err := c.Cancel(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRoundTripUnderCompute times one loopback GET /healthz round
// trip while GOMAXPROCS engine runs compute on as many job workers: the
// wait for network readiness that every HTTP hop of a probe pays.
func BenchmarkRoundTripUnderCompute(b *testing.B) {
	s, err := New(Options{Workers: 1, JobWorkers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Drain(ctx)
	}()
	c := api.NewClient(ts.URL)
	startComputeLoad(b, s, c)
	hc := ts.Client()
	b.ResetTimer()
	for range b.N {
		resp, err := hc.Get(ts.URL + "/healthz")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/roundtrip")
}
