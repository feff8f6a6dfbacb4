package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
	"eccparity/internal/cluster"
	"eccparity/internal/jobqueue"
	"eccparity/internal/resultcache"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// clusterNode is one live replica of a test fleet: the Server, its HTTP
// front end, and its ring identity.
type clusterNode struct {
	id   string
	url  string
	srv  *Server
	http *http.Server

	mu     sync.Mutex
	killed bool
}

// kill abruptly terminates the replica: listener closed, in-flight
// connections dropped — the closest in-process stand-in for a dead machine.
// The Server's queue keeps running (a real crash would lose it too, but the
// point under test is the peers' behavior, not the corpse's).
func (n *clusterNode) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.killed {
		n.killed = true
		n.http.Close()
	}
}

// fsBlob returns a blob-backend factory handing every replica its own
// *blob.FS over one shared dir — the plain single-copy shared tier.
func fsBlob(dir string) func(*testing.T) blob.Backend {
	return func(t *testing.T) blob.Backend {
		t.Helper()
		fs, err := blob.NewFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
}

// ecBlob returns a factory handing every replica a fresh erasure-coded
// backend (k=4, m=2) over the same six shard roots.
func ecBlob(dirs []string) func(*testing.T) blob.Backend {
	return func(t *testing.T) blob.Backend {
		t.Helper()
		b, err := ec.OpenFS(4, 2, dirs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// startCluster boots n replicas on loopback listeners that all know the
// full member list; newBlob, when non-nil, supplies each replica's shared
// blob tier. Listeners are opened first so every Options can carry every
// replica's real address.
func startCluster(t *testing.T, n int, newBlob func(*testing.T) blob.Backend) ([]*clusterNode, *cluster.Ring) {
	t.Helper()
	return startClusterWrapped(t, n, newBlob, nil)
}

// startClusterWrapped is startCluster with each replica's handler passed
// through wrap (when non-nil) before it serves, e.g. to record requests.
func startClusterWrapped(t *testing.T, n int, newBlob func(*testing.T) blob.Backend, wrap func(id string, h http.Handler) http.Handler) ([]*clusterNode, *cluster.Ring) {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Node{ID: string(rune('a' + i)), Addr: "http://" + ln.Addr().String()}
	}
	ring, err := cluster.New(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		o := Options{Workers: 2, NodeID: peers[i].ID, Peers: peers}
		if newBlob != nil {
			o.Blob = newBlob(t)
		}
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if wrap != nil {
			h = wrap(peers[i].ID, h)
		}
		hs := &http.Server{Handler: h}
		nodes[i] = &clusterNode{id: peers[i].ID, url: peers[i].Addr, srv: s, http: hs}
		go hs.Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.kill()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			nd.srv.Drain(ctx)
			cancel()
		}
	})
	return nodes, ring
}

// testParams is the reduced budget the single-node tests use, normalized
// exactly as handleSubmit does, so content addresses match the server's.
func testParams(seed int64) report.Params {
	return report.Params{Cycles: 2000, Warmup: 200, Trials: 8, Seed: seed}.Normalized()
}

func keyFor(t *testing.T, experiment string, p report.Params) string {
	t.Helper()
	key, err := resultcache.Key(canonicalConfig{Experiment: experiment, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// seedOwnedBy scans seeds until the resulting content address lands on the
// wanted replica — the white-box way to steer test traffic across the ring.
func seedOwnedBy(t *testing.T, ring *cluster.Ring, nodeID string, from int64) int64 {
	t.Helper()
	return ownedSeed(t, ring, nodeID, "table3", testParams(0), from)
}

// ownedSeed is seedOwnedBy for any experiment and budget: the first seed
// from `from` on whose normalized (experiment, base with that seed) config
// the wanted replica owns.
func ownedSeed(t *testing.T, ring *cluster.Ring, nodeID, experiment string, base report.Params, from int64) int64 {
	t.Helper()
	for seed := from; seed < from+10_000; seed++ {
		p := base
		p.Seed = seed
		if ring.Owner(keyFor(t, experiment, p.Normalized())).ID == nodeID {
			return seed
		}
	}
	t.Fatalf("no seed near %d owned by %s", from, nodeID)
	return 0
}

func submitSeed(seed int64) api.SubmitRequest {
	return api.SubmitRequest{Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8, Seed: seed}
}

// The tentpole e2e: a config submitted on replica a is routed to its ring
// owner, computed once, and afterwards every replica serves the result
// byte-identically — including a Cached=true answer for the same config
// resubmitted on a different node.
func TestClusterCrossNodeByteIdenticalServing(t *testing.T) {
	nodes, ring := startCluster(t, 3, fsBlob(t.TempDir()))
	// A seed owned by b, submitted on a: exercises the forward path.
	seed := seedOwnedBy(t, ring, "b", 1)

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	sr, err := ca.Submit(ctx, submitSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cached {
		t.Fatalf("first submit unexpectedly cached: %+v", sr)
	}
	if !strings.HasPrefix(sr.JobID, "b:") {
		t.Fatalf("job id %q not namespaced to owner b", sr.JobID)
	}
	// Poll through the origin: a proxies each read to b.
	js, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != api.StatusDone {
		t.Fatalf("job finished %s: %s", js.Status, js.Error)
	}

	// Push write-behind publishes into the shared tier, then read the
	// result from every replica: all three must return the same bytes.
	for _, nd := range nodes {
		nd.srv.cache.FlushShared()
	}
	var want []byte
	for i, nd := range nodes {
		b, err := api.NewClient(nd.url).ResultBytes(ctx, sr.ResultHash)
		if err != nil {
			t.Fatalf("node %s result read: %v", nd.id, err)
		}
		if i == 0 {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("node %s served different bytes than node a", nd.id)
		}
	}
	if len(want) == 0 {
		t.Fatal("empty result document")
	}

	// The same config on replica c is a cache hit — served without any
	// recomputation, from c's shared tier or the owner's memory.
	sr2, err := api.NewClient(nodes[2].url).Submit(ctx, submitSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached || sr2.ResultHash != sr.ResultHash {
		t.Fatalf("resubmit on c: cached=%v hash=%s, want cached hit of %s", sr2.Cached, sr2.ResultHash, sr.ResultHash)
	}

	if got := nodes[0].srv.metrics.peerForwarded.Load(); got == 0 {
		t.Error("node a forwarded nothing; ownership routing did not engage")
	}
	code, metrics := getBody(t, nodes[0].url+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(metrics), "eccsimd_cluster_nodes 3") {
		t.Errorf("metrics missing cluster gauges (status %d)", code)
	}
}

// An unreachable owner must not fail the submission: the receiving replica
// executes the job itself (determinism makes the duplicate compute safe).
func TestClusterForwardFallbackWhenOwnerDead(t *testing.T) {
	nodes, ring := startCluster(t, 3, nil)
	seed := seedOwnedBy(t, ring, "c", 1)
	nodes[2].kill()

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	sr, err := ca.Submit(ctx, submitSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sr.JobID, "a:") {
		t.Fatalf("job id %q: fallback should run locally on a", sr.JobID)
	}
	js, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != api.StatusDone {
		t.Fatalf("fallback job finished %s: %s", js.Status, js.Error)
	}
	if got := nodes[0].srv.metrics.peerForwardFallback.Load(); got == 0 {
		t.Error("peer_forward_fallback not counted")
	}
	if _, err := ca.ResultBytes(ctx, sr.ResultHash); err != nil {
		t.Fatalf("result after fallback: %v", err)
	}
}

// A 3-replica sweep must complete even when one replica is killed
// mid-sweep: its points are adopted by the coordinator and recomputed
// locally (or served from the shared tier), and every point stays
// fetchable byte-identically from the survivors.
func TestClusterSweepSurvivesReplicaDeath(t *testing.T) {
	nodes, ring := startCluster(t, 3, fsBlob(t.TempDir()))
	// Four seeds: at least one owned by the doomed replica c and one by b,
	// so the sweep genuinely spans the fleet.
	seeds := []int64{
		seedOwnedBy(t, ring, "a", 1),
		seedOwnedBy(t, ring, "b", 1000),
		seedOwnedBy(t, ring, "c", 2000),
		seedOwnedBy(t, ring, "c", 3000),
	}

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	st, err := ca.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8},
		Axes: api.SweepAxes{Seed: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "a:") {
		t.Fatalf("sweep id %q not namespaced to its coordinator", st.ID)
	}

	// Kill c with its points admitted but the sweep still in flight.
	nodes[2].kill()

	final, err := ca.WaitSweep(ctx, st.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone {
		t.Fatalf("sweep finished %s: %+v", final.Status, final.Progress)
	}
	if final.Progress.Done != len(seeds) {
		t.Fatalf("progress %+v, want all %d points done", final.Progress, len(seeds))
	}
	if got := nodes[0].srv.metrics.peerAdoptedPoints.Load(); got == 0 {
		t.Error("no points adopted although the owner of two points died")
	}

	// Every point's result is served byte-identically by both survivors.
	for _, nd := range nodes[:2] {
		nd.srv.cache.FlushShared()
	}
	cb := api.NewClient(nodes[1].url)
	for _, pt := range final.Points {
		ba, err := ca.ResultBytes(ctx, pt.ResultHash)
		if err != nil {
			t.Fatalf("point %d on a: %v", pt.Index, err)
		}
		bb, err := cb.ResultBytes(ctx, pt.ResultHash)
		if err != nil {
			t.Fatalf("point %d on b: %v", pt.Index, err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("point %d bytes differ between replicas", pt.Index)
		}
	}
}

// noRedirects is an HTTP client that reports a redirect instead of
// following it, so a test sees exactly what the replica answered.
var noRedirects = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// getResult reads a result document from one replica and returns the
// status, the replica that served it, and the body.
func getResult(t *testing.T, url, hash string) (int, string, []byte) {
	t.Helper()
	resp, err := noRedirects.Get(url + "/v1/results/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(servedByHeader), b
}

// Without a shared tier, a result read on a replica that never computed it
// is proxied server-side to the hash owner: the client sees a plain 200 with
// the owner's bytes, never a redirect.
func TestClusterResultProxiedRead(t *testing.T) {
	nodes, ring := startCluster(t, 2, nil)
	seed := seedOwnedBy(t, ring, "b", 1)

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	sr, err := ca.Submit(ctx, submitSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	before := nodes[0].srv.metrics.peerProxiedReads.Load()
	code, servedBy, got := getResult(t, nodes[0].url, sr.ResultHash)
	if code != http.StatusOK || servedBy != "b" {
		t.Fatalf("result read on a: status %d served by %q, want 200 from owner b", code, servedBy)
	}
	direct, err := api.NewClient(nodes[1].url).ResultBytes(ctx, sr.ResultHash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct) {
		t.Fatal("proxied read returned different bytes than the owner")
	}
	if nodes[0].srv.metrics.peerProxiedReads.Load() == before {
		t.Error("peer_proxied_reads not counted for the result read")
	}
}

// A dead owner costs the reader nothing: replica a computes a result by
// fallback while its owner c is down, and a read on replica b (which holds
// nothing) skips the dead owner and serves a's bytes.
func TestClusterResultReadSurvivesDeadOwner(t *testing.T) {
	nodes, ring := startCluster(t, 3, nil)
	seed := seedOwnedBy(t, ring, "c", 1)
	nodes[2].kill()

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	sr, err := ca.Submit(ctx, submitSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sr.JobID, "a:") {
		t.Fatalf("job id %q: fallback should run locally on a", sr.JobID)
	}
	if js, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond); err != nil || js.Status != api.StatusDone {
		t.Fatalf("fallback job: %+v, %v", js, err)
	}
	want, err := ca.ResultBytes(ctx, sr.ResultHash)
	if err != nil {
		t.Fatal(err)
	}

	code, servedBy, got := getResult(t, nodes[1].url, sr.ResultHash)
	if code != http.StatusOK || servedBy != "a" {
		t.Fatalf("result read on b: status %d served by %q, want 200 from a", code, servedBy)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read on b returned different bytes than a computed")
	}
}

// A relayed result read that misses answers 404 from this replica's own
// tiers and asks no peer, which bounds the proxy at one hop. The same miss
// from a client does ask the peer.
func TestClusterRelayedResultReadIsOneHop(t *testing.T) {
	var peerHits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		http.NotFound(w, r)
	}))
	t.Cleanup(peer.Close)
	_, ts := newServer(t, Options{Workers: 1, NodeID: "a", Peers: []cluster.Node{
		{ID: "a", Addr: "http://127.0.0.1:1"},
		{ID: "b", Addr: peer.URL},
	}})
	missing := ts.URL + "/v1/results/" + strings.Repeat("e", 64)

	req, err := http.NewRequest(http.MethodGet, missing, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(relayHeader, "b")
	resp, err := noRedirects.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || peerHits.Load() != 0 {
		t.Fatalf("relayed miss: status %d after %d peer requests, want 404 after none", resp.StatusCode, peerHits.Load())
	}

	if code, _ := getBody(t, missing); code != http.StatusNotFound || peerHits.Load() != 1 {
		t.Fatalf("client miss: status %d after %d peer requests, want 404 after one", code, peerHits.Load())
	}
}

// saturate fills s's queue with jobs held until the test ends: every job
// worker busy first, then the buffer, so the next submission gets ErrFull.
// Call it after startCluster, so the held jobs end before the fleet drains.
func saturate(t *testing.T, s *Server) {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	started := make(chan struct{}, 1)
	held := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return "held", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for range s.opts.JobWorkers {
		if _, err := s.queue.SubmitWith(held, jobqueue.SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
		<-started
	}
	for full := false; !full; {
		_, err := s.queue.SubmitWith(held, jobqueue.SubmitOptions{})
		full = errors.Is(err, jobqueue.ErrFull)
		if err != nil && !full {
			t.Fatal(err)
		}
	}
}

// A single submission whose owner's queue is full runs on the receiving
// replica, as a sweep point does, instead of relaying the owner's 429.
func TestClusterSubmitRunsLocallyWhenOwnerSaturated(t *testing.T) {
	nodes, ring := startCluster(t, 2, nil)
	owner := nodes[1]
	saturate(t, owner.srv)

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	sr, err := ca.Submit(ctx, submitSeed(seedOwnedBy(t, ring, owner.id, 1)))
	if err != nil {
		t.Fatalf("submit with a saturated owner: %v", err)
	}
	if !strings.HasPrefix(sr.JobID, "a:") {
		t.Fatalf("job id %q: a saturated owner should mean local execution on a", sr.JobID)
	}
	if js, err := ca.Wait(ctx, sr.JobID, 10*time.Millisecond); err != nil || js.Status != api.StatusDone {
		t.Fatalf("local job: %+v, %v", js, err)
	}
	if nodes[0].srv.metrics.peerForwardFallback.Load() == 0 {
		t.Error("peer_forward_fallback not counted")
	}
}

// The erasure-coded shared tier's e2e promise: with k=4,m=2 shard roots
// under a 3-replica sweep, losing two whole roots mid-sweep is invisible —
// a fresh replica with an empty local cache afterwards serves every point
// byte-identically straight from the degraded tier, with zero recomputes
// and the lost shards rebuilt (SharedRepaired > 0).
func TestClusterECSweepSurvivesShardRootLoss(t *testing.T) {
	dirs := ec.DeriveRoots(t.TempDir(), 6)
	nodes, ring := startCluster(t, 3, ecBlob(dirs))
	seeds := []int64{
		seedOwnedBy(t, ring, "a", 1),
		seedOwnedBy(t, ring, "b", 1000),
		seedOwnedBy(t, ring, "c", 2000),
		seedOwnedBy(t, ring, "c", 3000),
	}

	ca := api.NewClient(nodes[0].url)
	ctx := context.Background()
	st, err := ca.SubmitSweep(ctx, api.SweepRequest{
		Base: api.SubmitRequest{Experiment: "table3", Cycles: 2000, Warmup: 200, Trials: 8},
		Axes: api.SweepAxes{Seed: seeds},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least one finished point, flush its publish so a full
	// stripe is on disk, then destroy two shard roots — one data, one
	// parity — while the rest of the sweep is still running.
	for {
		cur, err := ca.Sweep(ctx, st.ID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Progress.Done >= 1 {
			break
		}
	}
	for _, nd := range nodes {
		nd.srv.cache.FlushShared()
	}
	for _, d := range []string{dirs[1], dirs[4]} {
		os.RemoveAll(d) // first pass may race a concurrent publish
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}

	final, err := ca.WaitSweep(ctx, st.ID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != api.StatusDone {
		t.Fatalf("sweep finished %s: %+v", final.Status, final.Progress)
	}
	if final.Progress.Done != len(seeds) {
		t.Fatalf("progress %+v, want all %d points done", final.Progress, len(seeds))
	}
	for _, nd := range nodes {
		nd.srv.cache.FlushShared()
	}

	// Reference bytes from the live fleet (owners still hold local copies).
	want := make(map[int][]byte, len(final.Points))
	for _, pt := range final.Points {
		b, err := ca.ResultBytes(ctx, pt.ResultHash)
		if err != nil {
			t.Fatalf("point %d reference read: %v", pt.Index, err)
		}
		want[pt.Index] = b
	}

	// A fresh single replica — empty memory and disk tiers, same shard
	// roots — must serve every point from the shared tier alone.
	fs, err := New(Options{Workers: 2, CacheDir: t.TempDir(), Blob: ecBlob(dirs)(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		fs.Drain(dctx)
		cancel()
	}()
	fresh := httptest.NewServer(fs.Handler())
	defer fresh.Close()
	cf := api.NewClient(fresh.URL)
	for _, pt := range final.Points {
		got, err := cf.ResultBytes(ctx, pt.ResultHash)
		if err != nil {
			t.Fatalf("point %d from fresh replica: %v", pt.Index, err)
		}
		if !bytes.Equal(got, want[pt.Index]) {
			t.Fatalf("point %d: fresh replica served different bytes", pt.Index)
		}
	}
	s := fs.cache.Stats()
	if s.Misses != 0 {
		t.Fatalf("fresh replica computed %d results; want all served from the EC tier", s.Misses)
	}
	if s.SharedRepaired == 0 {
		t.Fatal("SharedRepaired = 0: degraded reads must rebuild the lost shards")
	}
	if s.SharedCorrupt != 0 || s.SharedErrors != 0 {
		t.Fatalf("stats %+v: in-budget root loss must not count as corruption or errors", s)
	}
	code, mb := getBody(t, fresh.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(mb), "eccsimd_cache_shared_repaired_total") {
		t.Errorf("metrics missing EC repair counter (status %d)", code)
	}
}
