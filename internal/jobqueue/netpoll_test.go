package jobqueue

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"eccparity/internal/parallel"
)

// barrier blocks until n callers have arrived or ctx is canceled.
type barrier struct {
	n       int32
	arrived atomic.Int32
	all     chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: int32(n), all: make(chan struct{})} }

func (b *barrier) wait(ctx context.Context) error {
	if b.arrived.Add(1) == b.n {
		close(b.all)
	}
	select {
	case <-b.all:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// yieldingJob yields through its context yields times, after all n jobs
// sharing start have started and before they return together through
// end: an engine run's checkpoints while n job workers compute.
func yieldingJob(start, end *barrier, yields int) Task {
	return func(ctx context.Context) (any, error) {
		if err := start.wait(ctx); err != nil {
			return nil, err
		}
		for range yields {
			parallel.Yield(ctx)
		}
		return nil, end.wait(ctx)
	}
}

// runYieldingJobs runs n yieldingJobs on a queue of workers pool workers
// whose forced poll counts its calls, and returns the count.
func runYieldingJobs(t *testing.T, workers, n, yields int) int64 {
	t.Helper()
	q := New(n, workers)
	defer drain(q)
	var parks atomic.Int64
	q.SetNetPoll(func() bool {
		parks.Add(1)
		return true
	})
	start, end := newBarrier(n), newBarrier(n)
	var ids []string
	for range n {
		id, err := q.SubmitWith(yieldingJob(start, end, yields), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if s := awaitTerminal(t, q, id); s.Status != StatusDone {
			t.Fatalf("job %s ended %s: %s", id, s.Status, s.Error)
		}
	}
	return parks.Load()
}

// TestNetPollGateIdleP pins the gate shut: while fewer pool workers than
// Ps run jobs, a P is free to poll the network on its own, so no yield may
// reach the forced poll.
func TestNetPollGateIdleP(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("one P: no busy-worker count is below GOMAXPROCS")
	}
	if parks := runYieldingJobs(t, procs, procs-1, 200); parks != 0 {
		t.Fatalf("%d forced polls with %d of %d workers busy, want 0", parks, procs-1, procs)
	}
}

// TestNetPollGateAllBusy pins the gate open: once busy pool workers number
// GOMAXPROCS, every yield goes to the forced poll.
func TestNetPollGateAllBusy(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	const yields = 50
	if parks := runYieldingJobs(t, procs, procs, yields); parks != int64(procs*yields) {
		t.Fatalf("%d forced polls with every worker busy, want %d", parks, procs*yields)
	}
}
