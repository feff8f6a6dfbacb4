package jobqueue

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eccparity/internal/parallel"
)

// awaitTerminal blocks on the queue's transition channel, not a polling
// sleep, until job id is terminal.
func awaitTerminal(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	for {
		ch := q.Changed()
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if s.Status.Terminal() {
			return s
		}
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s stuck in %s", id, s.Status)
		}
	}
}

// await blocks until ch is closed, failing the test after 10 s: a
// missing lend shows as a failure, not a hang.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// hold blocks until release is closed or ctx is canceled, so the forced
// drain after a failed check ends a parked task instead of hanging.
func hold(ctx context.Context, release <-chan struct{}) {
	select {
	case <-release:
	case <-ctx.Done():
	}
}

// drain drains q, forcing it after 10 s.
func drain(q *Queue) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q.Drain(ctx)
}

// sharedJob is a task whose body is one parallel.Shared set of n tasks,
// joined with workers goroutines: the point a sweep job spends inside an
// evaluation matrix. cell(ctx, i) is task i.
func sharedJob(n, workers int, cell func(ctx context.Context, i int)) Task {
	return func(ctx context.Context) (any, error) {
		_, err := parallel.NewShared(n, func(ctx context.Context, i int) (int, error) {
			cell(ctx, i)
			return i, nil
		}).Join(ctx, workers)
		return "lender", err
	}
}

// waitMs is the queue-wait sample run records for a dispatched job.
func waitMs(s Snapshot) float64 {
	return float64(s.Started.Sub(s.Created).Nanoseconds()) / 1e6
}

// TestLendRunsInteractiveAtTaskBoundary: a sweep job parked inside a
// Shared set lends its worker to the interactive job queued behind it at
// the next task boundary, so the interactive job is done before the sweep
// job, on a one-worker queue. The lent job's snapshot and queue-wait sample
// are those of a normally dispatched job.
func TestLendRunsInteractiveAtTaskBoundary(t *testing.T) {
	q := New(8, 1)
	defer drain(q)
	parked, release := make(chan struct{}), make(chan struct{})
	sweep, err := q.SubmitWith(sharedJob(2, 1, func(ctx context.Context, i int) {
		if i == 0 {
			close(parked)
			hold(ctx, release)
		}
	}), SubmitOptions{Class: ClassSweep, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked, "the lender to park in its first task")
	var lenderStatus Status
	lent, err := q.Submit(func(context.Context) (any, error) {
		s, _ := q.Get(sweep)
		lenderStatus = s.Status
		return "probe", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	ls := awaitTerminal(t, q, lent)
	ss := awaitTerminal(t, q, sweep)

	if ls.Status != StatusDone || ls.Result != "probe" || ls.Class != ClassInteractive || ls.Error != "" {
		t.Fatalf("lent job %+v, want done/probe/interactive", ls)
	}
	if ss.Status != StatusDone || ss.Result != "lender" {
		t.Fatalf("lender %+v, want done", ss)
	}
	if lenderStatus != StatusRunning {
		t.Errorf("lender was %s while the lent job ran, want running", lenderStatus)
	}
	if ls.Finished.After(ss.Finished) {
		t.Error("lent job finished after its lender")
	}
	if ls.Started.Before(ls.Created) || ls.Finished.Before(ls.Started) {
		t.Errorf("lent job timestamps out of order: %+v", ls)
	}
	h := q.QueueWait(ClassInteractive)
	if h.N != 1 || h.Sum != waitMs(ls) {
		t.Errorf("interactive wait histogram N=%d sum=%v, want one sample of %v ms", h.N, h.Sum, waitMs(ls))
	}
	if c := q.Stats(); c.Lent != 1 || c.Done != 2 || c.Submitted != 2 {
		t.Errorf("counts %+v, want lent 1, done 2, submitted 2", c)
	}

	// A normally dispatched interactive job lands in the same histogram
	// the same way.
	normal, err := q.Submit(func(context.Context) (any, error) { return "probe", nil })
	if err != nil {
		t.Fatal(err)
	}
	ns := awaitTerminal(t, q, normal)
	if ns.Status != ls.Status || ns.Result != ls.Result || ns.Class != ls.Class {
		t.Errorf("normal dispatch %+v differs from lent %+v", ns, ls)
	}
	if h := q.QueueWait(ClassInteractive); h.N != 2 || h.Sum != waitMs(ls)+waitMs(ns) {
		t.Errorf("interactive wait histogram N=%d sum=%v after a normal dispatch", h.N, h.Sum)
	}
	if c := q.Stats(); c.Lent != 1 {
		t.Errorf("normal dispatch counted as lent: %+v", c)
	}
}

// TestLendNotFromInteractive: an interactive job parked inside a Shared set
// never lends; the interactive job behind it waits for a worker.
func TestLendNotFromInteractive(t *testing.T) {
	q := New(8, 1)
	defer drain(q)
	parked, release := make(chan struct{}), make(chan struct{})
	first, err := q.Submit(sharedJob(2, 1, func(ctx context.Context, i int) {
		if i == 0 {
			close(parked)
			hold(ctx, release)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked, "the lender to park in its first task")
	second, err := q.Submit(func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	fs := awaitTerminal(t, q, first)
	ss := awaitTerminal(t, q, second)
	if ss.Started.Before(fs.Finished) {
		t.Error("an interactive job lent its worker")
	}
	if c := q.Stats(); c.Lent != 0 {
		t.Errorf("lent %d jobs, want 0", c.Lent)
	}
}

// TestLendOneAtATime: a sweep job whose two Shared goroutines both reach a
// task boundary lends to one interactive job only; the second interactive
// job stays queued while the first runs, and in-flight exceeds the worker
// count meanwhile.
func TestLendOneAtATime(t *testing.T) {
	q := New(8, 1)
	defer drain(q)
	parked := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	lastCell := make(chan struct{})
	sweep, err := q.SubmitWith(sharedJob(3, 2, func(ctx context.Context, i int) {
		if i < 2 {
			close(parked[i])
			hold(ctx, release[i])
			return
		}
		close(lastCell)
	}), SubmitOptions{Class: ClassSweep, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked[0], "task 0 to park")
	await(t, parked[1], "task 1 to park")
	lentRunning, releaseLent := make(chan struct{}), make(chan struct{})
	first, err := q.Submit(func(ctx context.Context) (any, error) {
		close(lentRunning)
		hold(ctx, releaseLent)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Submit(func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}

	close(release[0]) // one goroutine's boundary: lends the first job
	await(t, lentRunning, "the lent job to start")
	if n := q.InFlight(); n != 2 {
		t.Errorf("in-flight %d while lending on a one-worker queue, want 2", n)
	}
	close(release[1]) // the other goroutine's boundary, then the last cell
	await(t, lastCell, "the last task")
	if s, _ := q.Get(second); s.Status != StatusQueued {
		t.Fatalf("second interactive job is %s while the first is lent, want queued", s.Status)
	}
	close(releaseLent)

	ss := awaitTerminal(t, q, sweep)
	fs := awaitTerminal(t, q, first)
	s2 := awaitTerminal(t, q, second)
	if ss.Status != StatusDone || fs.Status != StatusDone || s2.Status != StatusDone {
		t.Fatalf("statuses %s/%s/%s, want all done", ss.Status, fs.Status, s2.Status)
	}
	if s2.Started.Before(ss.Finished) {
		t.Error("second interactive job ran before its would-be lender finished")
	}
	if c := q.Stats(); c.Lent != 1 {
		t.Errorf("lent %d jobs, want 1", c.Lent)
	}
}

// TestLendingJobSurvivesInteractiveFlood: a batch job lending under an
// interactive backlog that never drains (every interactive job queues a
// replacement) still completes, one task per lent job.
func TestLendingJobSurvivesInteractiveFlood(t *testing.T) {
	const tasks, backlog = 8, 16
	q := New(64, 1)
	var stopped atomic.Bool
	defer stopped.Store(true)
	var flood Task
	flood = func(context.Context) (any, error) {
		if !stopped.Load() {
			q.Submit(flood) // ErrClosed once the test drains
		}
		return nil, nil
	}
	parked, release := make(chan struct{}), make(chan struct{})
	batch, err := q.SubmitWith(sharedJob(tasks, 1, func(ctx context.Context, i int) {
		if i == 0 {
			close(parked)
			hold(ctx, release)
		}
	}), SubmitOptions{Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked, "the lender to park in its first task")
	for i := 0; i < backlog; i++ {
		if _, err := q.Submit(flood); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	bs := awaitTerminal(t, q, batch)
	lent := q.Stats().Lent
	stopped.Store(true)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if bs.Status != StatusDone {
		t.Fatalf("lending batch job %+v, want done under an interactive flood", bs)
	}
	if lent != tasks-1 {
		t.Errorf("lent %d jobs over %d tasks, want one per boundary but the last", lent, tasks)
	}
	if c := q.Stats(); c.Failed != 0 || c.Done != c.Submitted {
		t.Errorf("counts %+v, want every job done", c)
	}
}

// TestLendCancelLenderMidLend: canceling a lending job while its lent job
// runs does not touch the lent job, which finishes done; the lender then
// stops at its next task claim and ends canceled.
func TestLendCancelLenderMidLend(t *testing.T) {
	q := New(8, 1)
	defer drain(q)
	parked, release := make(chan struct{}), make(chan struct{})
	var lastRan atomic.Bool
	sweep, err := q.SubmitWith(sharedJob(2, 1, func(ctx context.Context, i int) {
		if i == 0 {
			close(parked)
			hold(ctx, release)
			return
		}
		lastRan.Store(true)
	}), SubmitOptions{Class: ClassSweep, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, parked, "the lender to park in its first task")
	lentRunning, releaseLent := make(chan struct{}), make(chan struct{})
	lent, err := q.Submit(func(ctx context.Context) (any, error) {
		close(lentRunning)
		hold(ctx, releaseLent)
		return "probe", ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	await(t, lentRunning, "the lent job to start")
	if !q.Cancel(sweep) {
		t.Fatal("Cancel of the running lender returned false")
	}
	close(releaseLent)

	ls := awaitTerminal(t, q, lent)
	ss := awaitTerminal(t, q, sweep)
	if ls.Status != StatusDone || ls.Result != "probe" {
		t.Fatalf("lent job %+v, want done: the lender's cancel must not reach it", ls)
	}
	if ss.Status != StatusCanceled || !strings.Contains(ss.Error, "canceled") {
		t.Fatalf("lender %+v, want canceled", ss)
	}
	if lastRan.Load() {
		t.Error("canceled lender claimed another task after its lent job")
	}
}
