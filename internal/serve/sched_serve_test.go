package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eccparity/pkg/api"
)

// bigSweep returns an n-point seed sweep over fig9, the costliest
// experiment per cycle — at this reduced budget each point still takes
// ~25ms (far more under -race), so a single worker faces a real backlog.
func bigSweep(n int) api.SweepRequest {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(100 + i)
	}
	return api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "fig9", Cycles: 100000, Warmup: 2000, Trials: 2},
		Axes: api.SweepAxes{Seed: seeds},
	}
}

// TestInteractiveOvertakesSweep is the mixed-load e2e for the fair
// scheduler: with one job worker and an 8-point sweep backlog, an
// interactive submission landing mid-sweep must be dispatched ahead of the
// remaining sweep points and finish while the sweep is still running — the
// regression a single global FIFO would reintroduce.
func TestInteractiveOvertakesSweep(t *testing.T) {
	const points = 8
	t.Run("fair", func(t *testing.T) {
		_, ts := newServer(t, Options{Workers: 1, JobWorkers: 1, QueueCap: points + 8, MaxSweepPoints: points})
		c := api.NewClient(ts.URL)
		ctx := context.Background()

		st, err := c.SubmitSweep(ctx, bigSweep(points))
		if err != nil {
			t.Fatal(err)
		}
		// The sweep is queued; now race an interactive probe against it.
		code, sr := postJSON(t, ts.URL, `{"experiment":"fig1","seed":42,"priority":"interactive"}`)
		if code != http.StatusAccepted {
			t.Fatalf("interactive submit: status %d", code)
		}
		pollDone(t, ts.URL, sr.JobID)
		mid, err := c.Sweep(ctx, st.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitSweepTerminal(t, c, st.ID)
		done, total := mid.Progress.Done+mid.Progress.Failed+mid.Progress.Canceled, mid.Progress.Total
		if done >= total {
			t.Fatalf("interactive job finished only after all %d sweep points — fair scheduler did not prioritize it", total)
		}
	})
}

// TestPriorityDoesNotChangeResultBytes pins the fairness invariance
// contract: priority and submitter steer scheduling only — the result
// hash and the result document bytes are identical whatever class
// computed them, and on one server a resubmission under a different
// priority is a cache hit, not a recomputation.
func TestPriorityDoesNotChangeResultBytes(t *testing.T) {
	body := func(priority, submitter string) string {
		return fmt.Sprintf(`{"experiment":"table3","cycles":2000,"warmup":200,"trials":8,"seed":9,"priority":%q,"submitter":%q}`, priority, submitter)
	}

	_, tsA := newServer(t, Options{Workers: 1})
	_, tsB := newServer(t, Options{Workers: 1})

	codeA, a := postJSON(t, tsA.URL, body("interactive", "alice"))
	codeB, b := postJSON(t, tsB.URL, body("batch", "bob"))
	if codeA != http.StatusAccepted || codeB != http.StatusAccepted {
		t.Fatalf("submits: %d, %d", codeA, codeB)
	}
	if a.ResultHash != b.ResultHash {
		t.Fatalf("priority leaked into cache identity: %s vs %s", a.ResultHash, b.ResultHash)
	}
	pollDone(t, tsA.URL, a.JobID)
	pollDone(t, tsB.URL, b.JobID)

	_, bytesA := getBody(t, tsA.URL+"/v1/results/"+a.ResultHash)
	_, bytesB := getBody(t, tsB.URL+"/v1/results/"+b.ResultHash)
	if string(bytesA) != string(bytesB) {
		t.Fatal("result bytes differ between priority classes")
	}

	// Same server, different class: must be served from cache.
	code, again := postJSON(t, tsA.URL, body("batch", "carol"))
	if code != http.StatusOK || !again.Cached || again.ResultHash != a.ResultHash {
		t.Fatalf("resubmission under another priority: code %d cached %v hash %s", code, again.Cached, again.ResultHash)
	}
}

// TestSubmitRejectsUnknownPriority covers the validation path on both
// endpoints.
func TestSubmitRejectsUnknownPriority(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 1})
	if code, _ := postJSON(t, ts.URL, `{"experiment":"fig1","priority":"urgent"}`); code != http.StatusBadRequest {
		t.Fatalf("bogus priority on /v1/experiments: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"base":{"experiment":"fig1","priority":"urgent"},"axes":{"seed":[1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus priority on /v1/sweeps: status %d, want 400", resp.StatusCode)
	}
}

// TestSweepWatchStreams exercises the chunked NDJSON endpoint through the
// client: every point arrives exactly once as a "point" event while the
// sweep runs, the stream closes with the terminal aggregate, and a second
// watch on the finished sweep replays the full picture for late watchers.
func TestSweepWatchStreams(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 1, JobWorkers: 1})
	c := api.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.SubmitSweep(ctx, smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	final, err := c.WatchSweep(ctx, st.ID, 2*time.Second, func(p api.SweepPoint) error {
		seen[p.Index]++
		if p.Status != api.StatusDone {
			t.Errorf("streamed point %d in non-done state %q", p.Index, p.Status)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone {
		t.Fatalf("final sweep status %q", final.Status)
	}
	if len(seen) != st.Progress.Total {
		t.Fatalf("streamed %d distinct points, want %d", len(seen), st.Progress.Total)
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("point %d delivered %d times over one watch", idx, n)
		}
	}

	// A late watcher on the terminal sweep still gets every point.
	replay := 0
	if _, err := c.WatchSweep(ctx, st.ID, time.Second, func(api.SweepPoint) error { replay++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replay != st.Progress.Total {
		t.Fatalf("late watch replayed %d points, want %d", replay, st.Progress.Total)
	}
}

var (
	promHelpRE   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
)

// TestMetricsExpositionParses runs real traffic through the daemon, then
// validates /metrics line by line against the Prometheus text format: every
// line is a well-formed HELP, TYPE, or sample; every sample's family has a
// TYPE declared before it; every value parses as a float. It then checks
// the scheduler additions are present with all three classes.
func TestMetricsExpositionParses(t *testing.T) {
	_, ts := newServer(t, Options{Workers: 1, JobWorkers: 1})
	c := api.NewClient(ts.URL)
	ctx := context.Background()

	code, sr := postJSON(t, ts.URL, smallBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	pollDone(t, ts.URL, sr.JobID)
	st, err := c.SubmitSweep(ctx, smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	waitSweepTerminal(t, c, st.ID)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	typed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			t.Errorf("line %d: empty line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRE.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := promTypeRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			typed[m[1]] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unknown comment form: %q", i+1, line)
		default:
			m := promSampleRE.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
				continue
			}
			family := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); base != family && typed[base] {
					family = base
					break
				}
			}
			if !typed[family] {
				t.Errorf("line %d: sample %q has no preceding TYPE", i+1, m[1])
			}
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Errorf("line %d: value %q is not a float", i+1, m[3])
			}
		}
	}

	for _, class := range []string{"interactive", "sweep", "batch"} {
		for _, metric := range []string{"eccsimd_queue_class_depth", "eccsimd_queue_oldest_age_seconds"} {
			want := fmt.Sprintf(`%s{class=%q} `, metric, class)
			if !strings.Contains(text, want) {
				t.Errorf("missing %s sample for class %s", metric, class)
			}
		}
	}
	// The single submission dispatched as interactive, the sweep points as
	// sweep class — both wait histograms must have counted them.
	for _, want := range []string{
		`eccsimd_queue_wait_ms_count{class="interactive"}`,
		`eccsimd_queue_wait_ms_count{class="sweep"}`,
	} {
		idx := strings.Index(text, want)
		if idx < 0 {
			t.Fatalf("missing %s", want)
		}
		rest := strings.TrimSpace(strings.SplitN(text[idx+len(want):], "\n", 2)[0])
		if n, err := strconv.Atoi(rest); err != nil || n < 1 {
			t.Errorf("%s = %q, want >= 1", want, rest)
		}
	}
	// Lending is counted; nothing here queues an interactive job behind a
	// running sweep point, so the counter is present and still zero.
	if !regexp.MustCompile(`(?m)^eccsimd_jobs_lent_total 0$`).MatchString(text) {
		t.Error("missing eccsimd_jobs_lent_total sample, or it counted a lend")
	}
	// The runtime's scheduler-latency histogram is exported: cumulative
	// buckets ending in +Inf, which equals the count, and at least one
	// goroutine has waited to run by now.
	buckets := regexp.MustCompile(`(?m)^eccsimd_sched_latency_seconds_bucket\{le="([^"]+)"\} (\d+)$`).FindAllStringSubmatch(text, -1)
	if len(buckets) < 2 || buckets[len(buckets)-1][1] != "+Inf" {
		t.Fatalf("eccsimd_sched_latency_seconds: %d buckets, want several ending in +Inf", len(buckets))
	}
	prev := uint64(0)
	for _, m := range buckets {
		n, _ := strconv.ParseUint(m[2], 10, 64)
		if n < prev {
			t.Errorf("eccsimd_sched_latency_seconds bucket le=%s = %d, below the previous %d", m[1], n, prev)
		}
		prev = n
	}
	if !regexp.MustCompile(fmt.Sprintf(`(?m)^eccsimd_sched_latency_seconds_count %d$`, prev)).MatchString(text) || prev < 1 {
		t.Errorf("eccsimd_sched_latency_seconds_count missing or not the +Inf bucket %d", prev)
	}
	// The memory tier reports its entries and their payload bytes, which
	// stay within its 8 MiB bound.
	for _, metric := range []string{"eccsimd_cache_entries", "eccsimd_cache_mem_bytes"} {
		m := regexp.MustCompile(`(?m)^` + metric + ` (\S+)$`).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("missing %s sample", metric)
		}
		if n, err := strconv.ParseInt(m[1], 10, 64); err != nil || n < 1 || n > 8<<20 {
			t.Errorf("%s = %q, want in [1, 8 MiB]", metric, m[1])
		}
	}
}

// gateWriter is a progress writer that holds the first simulation-cell
// tick until released, parking the computing job's worker inside its
// first cell.
type gateWriter struct {
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (g *gateWriter) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("\rsim ")) {
		g.once.Do(func() {
			close(g.parked)
			<-g.release
		})
	}
	return len(b), nil
}

// TestLendSameConfigAsLender: an interactive submission of exactly the
// config a running sweep point is computing is lent that point's worker.
// The lent job must not wait on the sweep point's in-flight computation —
// the sweep point cannot finish until the lent job returns — so it
// computes the config itself, joining the same in-flight matrix, and both
// serve the bytes of a server that never lent.
func TestLendSameConfigAsLender(t *testing.T) {
	gate := &gateWriter{parked: make(chan struct{}), release: make(chan struct{})}
	s, ts := newServer(t, Options{Workers: 1, JobWorkers: 1, Progress: gate})
	c := api.NewClient(ts.URL)
	const body = `{"experiment":"fig10","cycles":4000,"warmup":500,"trials":12,"seed":3}`

	st, err := c.SubmitSweep(context.Background(), api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "fig10", Cycles: 4000, Warmup: 500, Seed: 3},
		Axes: api.SweepAxes{Trials: []int{12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.parked
	code, sr := postJSON(t, ts.URL, body)
	if code != http.StatusAccepted || sr.ResultHash != st.Points[0].ResultHash {
		t.Fatalf("interactive submit of the running point's config: status %d, hash %.12s vs %.12s", code, sr.ResultHash, st.Points[0].ResultHash)
	}
	close(gate.release)
	if js := pollDone(t, ts.URL, sr.JobID); js.Status != api.StatusDone {
		t.Fatalf("lent job ended %s: %s", js.Status, js.Error)
	}
	if fin := waitSweepTerminal(t, c, st.ID); fin.Status != api.StatusDone {
		t.Fatalf("lending sweep ended %s", fin.Status)
	}
	if n := s.queue.Stats().Lent; n != 1 {
		t.Fatalf("lent %d jobs, want 1", n)
	}

	_, plain := newServer(t, Options{Workers: 1})
	code, ref := postJSON(t, plain.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	pollDone(t, plain.URL, ref.JobID)
	_, want := getBody(t, plain.URL+"/v1/results/"+ref.ResultHash)
	if _, got := getBody(t, ts.URL+"/v1/results/"+sr.ResultHash); !bytes.Equal(got, want) {
		t.Fatal("result computed through a lent worker differs from the reference server's bytes")
	}
}
