package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
	"eccparity/internal/cluster"
	"eccparity/internal/serve"
	"eccparity/pkg/api"
)

// cluster-reads: three in-process replicas share a static ring over a
// (4,2) erasure-coded shared tier. Set-up publishes a pool of results and
// then deletes one data-shard root, so first reads on a replica are
// degraded shared-tier fills. nproc closed-loop clients then run a seeded
// mix of reads, resubmits and a small share of never-seen writes against
// random replicas.
const (
	replicas   = 3
	ecData     = 4
	ecParity   = 2
	poolSize   = 600
	poolTrials = 2
	// writeTrials differs from poolTrials so a write can never collide
	// with a pool result's content address.
	writeTrials   = poolTrials + 1
	writeShare    = 0.005
	resubmitShare = 0.25
	// coldShare of reads and resubmits go to a replica that has not yet
	// held the result, which fills it from the shared tier. The pool holds
	// 2×poolSize such (replica, result) pairs, enough for about 1M
	// operations.
	coldShare = 0.0012
	// readTail is the read-latency tail percentile. Each of the window's
	// slices holds about a hundred thousand reads. The cold fills sit above
	// it, in the top 0.12%: p99.9 lands among them but moves by half from
	// run to run with the host's file-system latency, so it is only noted.
	readTail  = 99
	writePoll = 2 * time.Millisecond
	// clusterWarmup runs the mix before the window opens: the first
	// seconds of a run read measurably slower than the rest.
	clusterWarmup = 3 * time.Second
)

type clusterStack struct {
	ds    []*daemon
	ecs   []*ec.Backend
	dir   string
	hc    *http.Client
	cs    []*api.Client
	pool  []point
	hash  []string
	docs  [][]byte // each pool result's bytes, as recorded at publish
	owner []int    // ring owner of each pool result
}

func (s *clusterStack) stop() {
	for _, d := range s.ds {
		d.stop()
	}
	os.RemoveAll(s.dir)
}

func poolPoint(seed int64, trials int) point {
	return point{Experiment: "faultinject", Req: api.SubmitRequest{Experiment: "faultinject", Trials: trials, Seed: seed}}
}

// startCluster starts the replicas over fresh shard roots, publishes the
// pool through them, waits until every pool result is in the shared tier
// and deletes shard root 0.
func startCluster(ctx context.Context, rec *recorder, poolSeeds []int64) (*clusterStack, error) {
	dir, err := os.MkdirTemp("", "perfbench-cluster-")
	if err != nil {
		return nil, err
	}
	s := &clusterStack{dir: dir, hc: newHTTPClient(rec)}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	roots := ec.DeriveRoots(filepath.Join(dir, "shards"), ecData+ecParity)
	lns := make([]net.Listener, replicas)
	peers := make([]cluster.Node, replicas)
	for i := range lns {
		if lns[i], err = listen(); err != nil {
			return nil, err
		}
		peers[i] = cluster.Node{ID: fmt.Sprintf("r%d", i), Addr: "http://" + lns[i].Addr().String()}
	}
	for i := range lns {
		var shards []blob.Backend
		for _, root := range roots {
			fs, err := blob.NewFS(root)
			if err != nil {
				return nil, err
			}
			var b blob.Backend = fs
			if rec != nil {
				b = tracedShard{Backend: fs, rec: rec}
			}
			shards = append(shards, b)
		}
		e, err := ec.New(ecData, ecParity, shards)
		if err != nil {
			return nil, err
		}
		var shared blob.Backend = e
		if rec != nil {
			shared = tracedEC{Backend: e, rec: rec}
		}
		d, err := startDaemon(serve.Options{
			Workers: 1, JobWorkers: 1, QueueCap: 2 * poolSize, MaxSweepPoints: poolSize,
			NodeID: peers[i].ID, Peers: peers, VNodes: cluster.DefaultVNodes, Blob: shared,
		}, lns[i], rec)
		if err != nil {
			for _, ln := range lns[i+1:] {
				ln.Close()
			}
			return nil, err
		}
		s.ds = append(s.ds, d)
		s.ecs = append(s.ecs, e)
		s.cs = append(s.cs, &api.Client{BaseURL: d.url, HTTPClient: s.hc})
	}
	ring, err := cluster.New(peers, cluster.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, p := range peers {
		index[p.ID] = i
	}

	// The pool is published as one sweep per replica holding exactly the
	// points that replica owns, so set-up never forwards; each result's
	// bytes are then read from its owner, which holds them in memory, and no
	// other replica is warmed.
	n := len(poolSeeds)
	s.pool, s.hash, s.docs, s.owner = make([]point, n), make([]string, n), make([][]byte, n), make([]int, n)
	owned := make([][]int64, replicas)
	bySeed := map[int64]int{}
	for i, seed := range poolSeeds {
		s.pool[i] = poolPoint(seed, poolTrials)
		h, _, err := expectedHash(s.pool[i])
		if err != nil {
			return nil, err
		}
		s.hash[i], s.owner[i] = h, index[ring.Owner(h).ID]
		owned[s.owner[i]] = append(owned[s.owner[i]], seed)
		bySeed[seed] = i
	}
	for r, seeds := range owned {
		c := s.cs[r]
		sw, err := c.SubmitSweep(ctx, api.SweepRequest{Base: poolPoint(0, poolTrials).Req, Axes: api.SweepAxes{Seed: seeds}})
		if err != nil {
			return nil, fmt.Errorf("submit pool sweep to r%d: %w", r, err)
		}
		final, err := c.WatchSweep(ctx, sw.ID, 30*time.Second, nil)
		if err != nil {
			return nil, fmt.Errorf("watch pool sweep on r%d: %w", r, err)
		}
		if final.Status != api.StatusDone {
			return nil, fmt.Errorf("pool sweep on r%d ended %s", r, final.Status)
		}
		for _, sp := range final.Points {
			i := bySeed[sp.Params.Seed]
			b, err := c.ResultBytes(ctx, sp.ResultHash)
			if err == nil {
				err = checkDoc(b, s.pool[i])
			}
			if err != nil {
				return nil, fmt.Errorf("pool result %d: %w", i, err)
			}
			s.docs[i] = b
		}
	}
	if err := s.awaitShared(ctx, n); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(roots[0]); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// awaitShared waits for the write-behind publishes to land: every pool
// result listed in the shared tier.
func (s *clusterStack) awaitShared(ctx context.Context, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		keys, err := s.ecs[0].List(ctx)
		if err != nil {
			return err
		}
		if len(keys) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d pool results reached the shared tier", len(keys), n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Operation kinds of the cluster-reads mix.
const (
	opRead = iota
	opResubmit
	opWrite
)

type clusterOp struct {
	kind, replica, idx int
	readBack           int   // opWrite: replica the result is read back from
	seed               int64 // opWrite: the never-seen seed
}

// opPlan draws the seeded operation sequence. It tracks which replicas
// hold which pool results, so cold (shared-tier) and hot (memory) reads
// keep a fixed share however fast the run goes.
type opPlan struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cold [replicas][]int
	hot  [replicas][]int
}

func newOpPlan(rng *rand.Rand, owner []int) *opPlan {
	p := &opPlan{rng: rng}
	for _, i := range rng.Perm(len(owner)) {
		for r := 0; r < replicas; r++ {
			if owner[i] == r {
				p.hot[r] = append(p.hot[r], i)
			} else {
				p.cold[r] = append(p.cold[r], i)
			}
		}
	}
	return p
}

func (p *opPlan) next() clusterOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	op := clusterOp{replica: p.rng.Intn(replicas)}
	k := p.rng.Float64()
	switch {
	case k < writeShare:
		op.kind = opWrite
		op.readBack = (op.replica + 1 + p.rng.Intn(replicas-1)) % replicas
		op.seed = p.rng.Int63n(1<<40) + 1
		return op
	case k < writeShare+resubmitShare:
		op.kind = opResubmit
	}
	r := op.replica
	if p.rng.Float64() < coldShare && len(p.cold[r]) > 0 {
		op.idx = p.cold[r][0]
		p.cold[r] = p.cold[r][1:]
		p.hot[r] = append(p.hot[r], op.idx)
		return op
	}
	op.idx = p.hot[r][p.rng.Intn(len(p.hot[r]))]
	return op
}

func (p *opPlan) coldLeft() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.cold {
		n += len(c)
	}
	return n
}

// written is one write's point and the bytes its read-back returned.
type written struct {
	p point
	b []byte
}

func runClusterReads(ctx context.Context, o options) (*run, error) {
	r := newRun()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	rng := rand.New(rand.NewSource(o.seed))
	poolSeeds := make([]int64, poolSize)
	for i := range poolSeeds {
		poolSeeds[i] = rng.Int63n(1<<40) + 1
	}
	st, setup, err := setupTimed(func() (*clusterStack, error) {
		return startCluster(ctx, rec, poolSeeds)
	}, (*clusterStack).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	urls := make([]string, replicas)
	for i, d := range st.ds {
		urls[i] = d.url
	}

	plan := newOpPlan(rand.New(rand.NewSource(rng.Int63())), st.owner)
	start := time.Now().Add(clusterWarmup)
	end := start.Add(o.window)
	nsl := windowSlices
	if v, err := strconv.Atoi(os.Getenv("XXX_SLICES")); err == nil {
		nsl = v
	}
	reads := newSlicer(start, o.window, nsl)
	var (
		mu                  sync.Mutex
		submitLat, writeLat []float64
		writes              []written
		wg                  sync.WaitGroup
	)
	nc := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("XXX_CLIENTS")); err == nil {
		nc = v
	}
	for w := 0; w < nc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				op := plan.next()
				res, err := st.do(ctx, op)
				now := time.Now()
				mu.Lock()
				r.attempted++
				switch {
				case errors.Is(err, errMismatch):
					r.failed++
					r.problem("%v", err)
				case err != nil:
					r.failed++
					r.problem("op %d on r%d: %v", op.kind, op.replica, err)
				default:
					if op.kind == opWrite {
						writes = append(writes, res.written)
					}
					if now.Before(start) {
						break
					}
					if res.read > 0 {
						reads.add(now, res.read)
					}
					if res.submit > 0 {
						submitLat = append(submitLat, res.submit)
					}
					if res.write > 0 {
						writeLat = append(writeLat, res.write)
					}
				}
				mu.Unlock()
			}
		}()
	}
	// The window opens after the warm-up: per-layer counts start there.
	time.Sleep(time.Until(start))
	if rec != nil {
		rec.reset()
	}
	before, err := scrapeAll(ctx, st.hc, urls)
	if err != nil {
		return nil, err
	}
	wg.Wait()
	after, err := scrapeAll(ctx, st.hc, urls)
	if err != nil {
		return nil, err
	}
	if plan.coldLeft() == 0 {
		r.note("cold pool exhausted: later reads were all memory hits")
	}

	// Checks: the pool is the seed-determined output; two pool results and
	// every write are recomputed in process.
	r.digest = digest(st.docs)
	var pts []point
	var docs [][]byte
	for _, i := range rng.Perm(len(st.pool))[:2] {
		pts, docs = append(pts, st.pool[i]), append(docs, st.docs[i])
	}
	for _, w := range writes {
		pts, docs = append(pts, w.p), append(docs, w.b)
	}
	verifySample(ctx, r, pts, docs)

	p50, _ := reads.percentile(50)
	tail, ok := reads.percentile(readTail)
	if !ok {
		r.problem("read latency: a window slice has fewer than %d reads beyond p%v", minBeyond, readTail)
	}
	r.e2e["throughput_per_s"] = reads.rate()
	r.e2e["latency_p50_ms"], r.e2e["latency_tail_ms"] = p50, tail
	fills, _ := reads.percentile(99.9)
	p90x, _ := reads.percentile(90)
	p95x, _ := reads.percentile(95)
	p99x, _ := reads.percentile(99)
	r.note("XXX p90=%.4f p95=%.4f p99=%.4f", p90x, p95x, p99x)
	r.note("read latency: n=%d in %d slices, slice medians p50=%.3fms p%v=%.3fms p99.9=%.3fms",
		reads.count(), windowSlices, p50, readTail, tail, fills)
	r.note("read rate per slice: %.0f", reads.rates())
	r.note("submissions %d (p50 %.3fms), writes %d", len(submitLat), median(submitLat), len(writeLat))
	if rec != nil {
		daemonLayers(r, after.sub(before))
		recorderLayers(r, rec, o.window, float64(reads.count()))
		r.layers["loadgen.write_ms"] = median(writeLat)
	}
	return r, finishE2E(r, setup)
}

// errMismatch marks served bytes that differ from the bytes recorded at
// publish.
var errMismatch = errors.New("served bytes differ from the published result")

// opResult carries one operation's timings (milliseconds, 0 when the
// operation had no such step).
type opResult struct {
	read, submit, write float64
	written             written
}

func (s *clusterStack) do(ctx context.Context, op clusterOp) (opResult, error) {
	var res opResult
	c := s.cs[op.replica]
	switch op.kind {
	case opWrite:
		p := poolPoint(op.seed, writeTrials)
		t := time.Now()
		sr, err := c.Submit(ctx, p.Req)
		res.submit = ms(time.Since(t))
		if err != nil {
			return res, err
		}
		if !sr.Cached {
			js, err := c.Wait(ctx, sr.JobID, writePoll)
			if err != nil {
				return res, err
			}
			if js.Status != api.StatusDone {
				return res, fmt.Errorf("write job ended %s: %s", js.Status, js.Error)
			}
		}
		b, err := s.cs[op.readBack].ResultBytes(ctx, sr.ResultHash)
		res.write = ms(time.Since(t))
		res.written = written{p: p, b: b}
		return res, err
	case opResubmit:
		t := time.Now()
		sr, err := c.Submit(ctx, s.pool[op.idx].Req)
		res.submit = ms(time.Since(t))
		if err != nil {
			return res, err
		}
		if !sr.Cached || sr.ResultHash != s.hash[op.idx] {
			return res, fmt.Errorf("resubmit of pool result %d on r%d: cached %v hash %.12s, want a cache hit on %.12s",
				op.idx, op.replica, sr.Cached, sr.ResultHash, s.hash[op.idx])
		}
	}
	t := time.Now()
	b, err := c.ResultBytes(ctx, s.hash[op.idx])
	res.read = ms(time.Since(t))
	if err != nil {
		return res, err
	}
	if string(b) != string(s.docs[op.idx]) {
		return res, fmt.Errorf("%w: pool result %d on r%d", errMismatch, op.idx, op.replica)
	}
	return res, nil
}
