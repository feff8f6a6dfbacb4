package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"eccparity/internal/jobqueue"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// longParams is longBody's budget: a fig9 point that cannot finish during a
// test run, so cancellation is the only way it ends.
var longParams = report.Params{Cycles: MaxCycles, Warmup: 100}

// longSweep is a sweep of longParams points over seeds.
func longSweep(seeds ...int64) api.SweepRequest {
	return api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "fig9", Cycles: longParams.Cycles, Warmup: longParams.Warmup},
		Axes: api.SweepAxes{Seed: seeds},
	}
}

// localJob returns the local id of a wire job id that must live on node.
func localJob(t *testing.T, nd *clusterNode, wire string) string {
	t.Helper()
	id, local, ok := strings.Cut(wire, ":")
	if !ok || id != nd.id {
		t.Fatalf("job id %q does not live on replica %s", wire, nd.id)
	}
	return local
}

// awaitJob waits until the job reaches status on s's queue.
func awaitJob(t *testing.T, s *Server, id string, status jobqueue.Status) jobqueue.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, ok := s.queue.Get(id)
		if !ok {
			t.Fatalf("no job %s", id)
		}
		if snap.Status == status {
			return snap
		}
		if snap.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, snap.Status, status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// An adopted sweep point is admitted with its sweep's own options: a batch
// sweep's point runs in the batch class after its owner dies, not at the
// sweep default.
func TestClusterAdoptedPointKeepsSweepOptions(t *testing.T) {
	nodes, ring := startCluster(t, 3, nil)
	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	st, err := ca.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{
			Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8,
			Priority: api.PriorityBatch, Submitter: "tenant-7", TimeoutSeconds: 30,
		},
		Axes: api.SweepAxes{Seed: []int64{seedOwnedBy(t, ring, "c", 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	localJob(t, nodes[2], st.Points[0].JobID)
	nodes[2].kill()

	final := waitSweepTerminal(t, ca, st.ID)
	if final.Status != api.StatusDone {
		t.Fatalf("sweep finished %s: %+v", final.Status, final.Progress)
	}
	if got := nodes[0].srv.metrics.peerAdoptedPoints.Load(); got != 1 {
		t.Fatalf("adopted points = %d, want 1", got)
	}
	snap, ok := nodes[0].srv.queue.Get(localJob(t, nodes[0], final.Points[0].JobID))
	if !ok {
		t.Fatalf("adopted job %s not on the coordinator", final.Points[0].JobID)
	}
	if snap.Class != jobqueue.ClassBatch || snap.Group != strings.TrimPrefix(st.ID, "a:") {
		t.Fatalf("adopted job class %s group %q, want batch in the sweep's group", snap.Class, snap.Group)
	}
}

// Adopting a point whose dead owner already published its result makes no
// job: the admit step finds the result in the shared tier, and the point
// reads done under its owner's job id.
func TestClusterAdoptionFindsPublishedResult(t *testing.T) {
	nodes, ring := startCluster(t, 3, fsBlob(t.TempDir()))
	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	st, err := ca.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8},
		Axes: api.SweepAxes{Seed: []int64{seedOwnedBy(t, ring, "c", 1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, nodes[2].srv, localJob(t, nodes[2], st.Points[0].JobID), jobqueue.StatusDone)
	nodes[2].srv.cache.FlushShared()
	nodes[2].kill()

	final := waitSweepTerminal(t, ca, st.ID)
	if pt := final.Points[0]; final.Status != api.StatusDone || pt.JobID != st.Points[0].JobID || pt.Cached {
		t.Fatalf("sweep %s, point %+v: want done under the owner's job", final.Status, pt)
	}
	if got := nodes[0].srv.metrics.peerAdoptedPoints.Load(); got != 1 {
		t.Fatalf("adopted points = %d, want 1", got)
	}
	if got := nodes[0].srv.queue.Stats().Submitted; got != 0 {
		t.Fatalf("coordinator submitted %d jobs for a published result", got)
	}
}

// DELETE on a sweep's coordinator cancels the points running on live
// owners, owner-side. A dead owner's points read canceled without being
// adopted: no local job is made for them.
func TestClusterSweepCancelStopsOwnersWithoutAdopting(t *testing.T) {
	nodes, ring := startCluster(t, 3, nil)
	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	st, err := ca.SubmitSweep(ctx, longSweep(
		ownedSeed(t, ring, "b", "fig9", longParams, 1),
		ownedSeed(t, ring, "c", "fig9", longParams, 1000),
	))
	if err != nil {
		t.Fatal(err)
	}
	onB := localJob(t, nodes[1], st.Points[0].JobID)
	onC := localJob(t, nodes[2], st.Points[1].JobID)
	// A killed replica's queue keeps computing; stop its job before the
	// fleet drains.
	t.Cleanup(func() { nodes[2].srv.queue.Cancel(onC) })
	awaitJob(t, nodes[1].srv, onB, jobqueue.StatusRunning)
	nodes[2].kill()

	resp, err := ca.CancelSweep(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Points[1].Status; got != api.StatusCanceled {
		t.Fatalf("dead owner's point reads %s after cancel, want canceled", got)
	}
	awaitJob(t, nodes[1].srv, onB, jobqueue.StatusCanceled)
	final := waitSweepTerminal(t, ca, st.ID)
	if final.Status != api.StatusCanceled || final.Progress.Canceled != 2 {
		t.Fatalf("sweep after cancel: %s %+v, want both points canceled", final.Status, final.Progress)
	}
	if got := nodes[0].srv.metrics.peerAdoptedPoints.Load(); got != 0 {
		t.Fatalf("cancel adopted %d points", got)
	}
	if got := nodes[0].srv.queue.Stats().Submitted; got != 0 {
		t.Fatalf("coordinator submitted %d local jobs for a sweep it only forwarded", got)
	}
}

// A sweep whose coordinator queue fills mid-admission answers 429, and
// every point already forwarded is canceled on its owner.
func TestClusterSweepQueueFullRollsBackForwardedPoints(t *testing.T) {
	nodes, ring := startCluster(t, 3, nil)
	saturate(t, nodes[0].srv)
	req := longSweep(
		ownedSeed(t, ring, "b", "fig9", longParams, 1),
		ownedSeed(t, ring, "c", "fig9", longParams, 1000),
		ownedSeed(t, ring, "a", "fig9", longParams, 2000),
	)
	_, err := api.NewClient(nodes[0].url).SubmitSweep(context.Background(), req)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("sweep over a full coordinator queue: %v, want 429 queue_full", err)
	}
	if got := nodes[0].srv.metrics.peerForwarded.Load(); got != 2 {
		t.Fatalf("forwarded %d points before the full queue, want 2", got)
	}
	for _, nd := range nodes[1:] {
		q := nd.srv.queue
		deadline := time.Now().Add(30 * time.Second)
		for q.Depth() > 0 || q.InFlight() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s still runs the rolled-back point", nd.id)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if c := q.Stats(); c.Submitted != 1 || c.Canceled != 1 {
			t.Fatalf("replica %s queue counts %+v, want its one forwarded point canceled", nd.id, c)
		}
	}
	if code, _ := getBody(t, nodes[0].url+"/v1/sweeps/a:sweep-1"); code != http.StatusNotFound {
		t.Fatalf("rejected sweep reads %d, want 404", code)
	}
}

// testClientHeader marks the test's own requests, so a replica can tell
// them from peer traffic without trusting the relay header under test.
const testClientHeader = "X-Test-Client"

type markTransport struct{}

func (markTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(testClientHeader, "1")
	return http.DefaultTransport.RoundTrip(r)
}

// Every request one replica sends another carries X-Eccsimd-Relay naming
// the sender: forwarded submissions and sweep points, remote polls,
// cancels, and proxied job, sweep and result reads. The test drives each
// kind from one replica at a time, so every peer request must name it.
func TestClusterPeerRequestsCarryRelayHeader(t *testing.T) {
	type arrival struct {
		receiver, sender, method, route, relay string
		client                                 bool
	}
	var (
		mu       sync.Mutex
		sender   string
		arrivals []arrival
	)
	record := func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := r.URL.Path
			if i := strings.LastIndex(route, "/"); i > len("/v1") {
				route = route[:i+1]
			}
			mu.Lock()
			arrivals = append(arrivals, arrival{id, sender, r.Method, route,
				r.Header.Get(relayHeader), r.Header.Get(testClientHeader) != ""})
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	}
	from := func(nd *clusterNode) *api.Client {
		mu.Lock()
		sender = nd.id
		mu.Unlock()
		return &api.Client{BaseURL: nd.url, HTTPClient: &http.Client{Transport: markTransport{}}}
	}
	nodes, ring := startClusterWrapped(t, 3, nil, record)
	ctx := context.Background()

	// From a: a forwarded submit, a proxied job long-poll, a proxied result
	// read, a forwarded sweep whose owner c dies (remote polls, adoption),
	// and a sweep cancel on a live owner.
	ca := from(nodes[0])
	sr, err := ca.Submit(ctx, submitSeed(seedOwnedBy(t, ring, "b", 1)))
	if err != nil {
		t.Fatal(err)
	}
	localJob(t, nodes[1], sr.JobID)
	if js, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond); err != nil || js.Status != api.StatusDone {
		t.Fatalf("forwarded job: %+v, %v", js, err)
	}
	if _, err := ca.ResultBytes(ctx, sr.ResultHash); err != nil {
		t.Fatal(err)
	}
	sw, err := ca.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8},
		Axes: api.SweepAxes{Seed: []int64{seedOwnedBy(t, ring, "b", 1000), seedOwnedBy(t, ring, "c", 2000)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[2].kill()
	done := waitSweepTerminal(t, ca, sw.ID)
	if done.Status != api.StatusDone || nodes[0].srv.metrics.peerAdoptedPoints.Load() != 1 {
		t.Fatalf("sweep with a dead owner: %s %+v", done.Status, done.Progress)
	}
	long, err := ca.SubmitSweep(ctx, longSweep(ownedSeed(t, ring, "b", "fig9", longParams, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.CancelSweep(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitSweepTerminal(t, ca, long.ID); st.Status != api.StatusCanceled {
		t.Fatalf("canceled sweep finished %s", st.Status)
	}

	// From b: a proxied sweep read, a proxied read of the adopted job, and a
	// result read that skips the dead owner c for a.
	cb := from(nodes[1])
	if _, err := cb.Sweep(ctx, sw.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Job(ctx, done.Points[1].JobID); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.ResultBytes(ctx, done.Points[1].ResultHash); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	kinds := map[string]int{}
	for _, a := range arrivals {
		if a.client {
			if a.relay != "" {
				t.Errorf("client %s %s to %s carries relay %q", a.method, a.route, a.receiver, a.relay)
			}
			continue
		}
		if a.relay != a.sender || a.receiver == a.sender {
			t.Errorf("peer %s %s to %s carries relay %q, want %q", a.method, a.route, a.receiver, a.relay, a.sender)
		}
		kinds[a.method+" "+a.route]++
	}
	for _, k := range []string{
		"POST /v1/experiments", "GET /v1/jobs/", "DELETE /v1/jobs/",
		"GET /v1/sweeps/", "GET /v1/results/",
	} {
		if kinds[k] == 0 {
			t.Errorf("no peer request %s observed (saw %v)", k, kinds)
		}
	}
}
