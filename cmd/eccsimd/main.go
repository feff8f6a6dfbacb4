// Command eccsimd is the experiment-serving daemon: a long-running HTTP
// service that accepts the paper's experiments as JSON requests, executes
// them on a bounded job queue, and memoizes every result in a
// content-addressed cache (same normalized config ⇒ same SHA-256 ⇒ same
// bytes, served without recomputation).
//
//	eccsimd -addr :8344 -cache-dir eccsimd-cache
//
//	curl -s localhost:8344/v1/experiments \
//	    -d '{"experiment":"fig8","trials":2000,"seed":1}'   # → job id + result hash
//	curl -s localhost:8344/v1/jobs/job-1                    # → poll status
//	curl -s localhost:8344/v1/results/<hash>                # → result document
//	curl -s localhost:8344/v1/sweeps \
//	    -d '{"base":{"experiment":"fig8"},"axes":{"seed":[1,2,3]}}'  # → batched grid
//	curl -s 'localhost:8344/v1/sweeps/sweep-1?wait=10s'     # → long-poll progress
//	curl -s localhost:8344/metrics                          # → Prometheus text
//
// SIGTERM/SIGINT drains gracefully: the listener stops, queued and running
// jobs finish (up to -drain-timeout), results land in the cache, then the
// process exits. See internal/serve for the API, internal/jobqueue and
// internal/resultcache for the machinery.
//
// Multi-node: -peers + -node-id join a static consistent-hash fleet and
// -blob-dir adds a shared result tier on a common mount, so replicas serve
// each other's results byte-identically (see internal/cluster and
// internal/blob):
//
//	eccsimd -addr :8344 -node-id a \
//	    -peers 'a=http://h1:8344,b=http://h2:8344,c=http://h3:8344' \
//	    -blob-dir /mnt/shared/eccsimd-blobs -cache-dir /var/cache/eccsimd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eccparity/internal/blob"
	"eccparity/internal/blob/ec"
	"eccparity/internal/cliflags"
	"eccparity/internal/cluster"
	"eccparity/internal/serve"
)

// parseECGeometry parses the -blob-ec value: "k,m" with k ≥ 1 data shards
// and m ≥ 1 parity shards. Range limits live in ec.New; this only enforces
// the flag's shape.
func parseECGeometry(s string) (k, m int, err error) {
	ks, ms, ok := strings.Cut(s, ",")
	if ok {
		k, err = strconv.Atoi(strings.TrimSpace(ks))
		if err == nil {
			m, err = strconv.Atoi(strings.TrimSpace(ms))
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-blob-ec must be 'k,m', e.g. 4,2: got %q", s)
	}
	if k < 1 || m < 1 {
		return 0, 0, fmt.Errorf("-blob-ec needs k >= 1 and m >= 1: got %d,%d", k, m)
	}
	return k, m, nil
}

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines inside each experiment's simulation/Monte Carlo pool")
	jobWorkers := flag.Int("job-workers", 2, "experiments executing concurrently")
	queueCap := flag.Int("queue-cap", 16, "bounded submission backlog")
	cacheDir := flag.String("cache-dir", "", "directory for the on-disk result cache (empty: in-memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "on-disk cache byte budget; LRU entries are evicted past it (0: unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job execution deadline, also the ceiling for per-request timeout_seconds (0: none)")
	maxSweepPoints := flag.Int("max-sweep-points", serve.MaxSweepPointsDefault, "maximum points one sweep may expand to")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a shutdown waits for in-flight jobs before canceling stragglers")
	progress := flag.Bool("progress", false, "emit per-experiment progress tickers on stderr")
	nodeID := flag.String("node-id", "", "this replica's id in -peers (required with -peers)")
	peersFlag := flag.String("peers", "", "full replica list as id=baseURL pairs, e.g. 'a=http://h1:8344,b=http://h2:8344' (empty: single node)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per replica on the consistent-hash ring (must match across the fleet)")
	blobDir := flag.String("blob-dir", "", "shared blob directory for the cross-replica result tier, e.g. an NFS mount (empty: none); with -blob-ec, a comma-separated list of exactly k+m shard roots or a single base dir to derive them under")
	blobEC := flag.String("blob-ec", "", "erasure-code the shared blob tier as 'k,m' (k data + m parity shards per result); reads survive any m lost or corrupt shard roots")
	flag.Parse()

	for _, f := range []struct {
		name string
		n    int
	}{{"-workers", *workers}, {"-job-workers", *jobWorkers}, {"-queue-cap", *queueCap}, {"-max-sweep-points", *maxSweepPoints}} {
		if err := cliflags.CheckPositive(f.name, f.n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *cacheMaxBytes < 0 {
		fmt.Fprintln(os.Stderr, "-cache-max-bytes must be non-negative")
		os.Exit(2)
	}
	var peers []cluster.Node
	switch {
	case *peersFlag != "":
		var err error
		if peers, err = cluster.ParsePeers(*peersFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "-peers requires -node-id naming this replica's entry")
			os.Exit(2)
		}
	case *nodeID != "":
		fmt.Fprintln(os.Stderr, "-node-id is only meaningful with -peers")
		os.Exit(2)
	}
	opts := serve.Options{
		Workers:        *workers,
		JobWorkers:     *jobWorkers,
		QueueCap:       *queueCap,
		CacheDir:       *cacheDir,
		CacheMaxBytes:  *cacheMaxBytes,
		JobTimeout:     *jobTimeout,
		MaxSweepPoints: *maxSweepPoints,
		NodeID:         *nodeID,
		Peers:          peers,
		VNodes:         *vnodes,
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	var ecK, ecM int
	switch {
	case *blobEC != "" && *blobDir == "":
		fmt.Fprintln(os.Stderr, "-blob-ec requires -blob-dir naming the shard roots")
		os.Exit(2)
	case *blobEC != "":
		k, m, err := parseECGeometry(*blobEC)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ecK, ecM = k, m
		dirs := strings.Split(*blobDir, ",")
		if len(dirs) == 1 {
			dirs = ec.DeriveRoots(dirs[0], k+m)
		} else if len(dirs) != k+m {
			fmt.Fprintf(os.Stderr, "-blob-ec %d,%d needs exactly %d shard roots in -blob-dir, got %d\n", k, m, k+m, len(dirs))
			os.Exit(2)
		}
		backend, err := ec.OpenFS(k, m, dirs)
		if err != nil {
			log.Fatal(err)
		}
		opts.Blob = backend
	case *blobDir != "":
		if *cacheDir != "" && filepath.Clean(*cacheDir) == filepath.Clean(*blobDir) {
			// Both tiers are blob.FS layouts: one directory would let the
			// local byte budget evict the fleet's shared results.
			fmt.Fprintln(os.Stderr, "-cache-dir and -blob-dir must name different directories")
			os.Exit(2)
		}
		fs, err := blob.NewFS(*blobDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Blob = fs
	}
	s, err := serve.New(opts)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("eccsimd listening on %s (job workers %d, queue cap %d, cache dir %q)",
		*addr, *jobWorkers, *queueCap, *cacheDir)
	if *blobEC != "" {
		log.Printf("shared blob tier erasure-coded %d+%d over %q: reads survive any %d lost shard roots",
			ecK, ecM, *blobDir, ecM)
	}
	if len(peers) > 0 {
		log.Printf("clustered as node %q: %d replicas, %d vnodes, shared blob dir %q",
			*nodeID, len(peers), *vnodes, *blobDir)
	}

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately

	log.Printf("shutdown signal received, draining (timeout %v)", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Drain(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("drain timed out: remaining jobs canceled")
		} else {
			log.Printf("drain: %v", err)
		}
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}
