package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, q *Queue, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if s.Status.Terminal() {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Snapshot{}
}

func TestSubmitRunGet(t *testing.T) {
	q := New(8, 2)
	defer q.Drain(context.Background())
	id, err := q.SubmitWith(func(context.Context) (any, error) { return 42, nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.Status != StatusDone || s.Result != 42 {
		t.Fatalf("snapshot %+v, want done/42", s)
	}
	if _, ok := q.Get("job-999"); ok {
		t.Error("Get of unknown id succeeded")
	}
}

func TestFailedJobCarriesError(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	id, _ := q.SubmitWith(func(context.Context) (any, error) { return nil, errors.New("boom") }, SubmitOptions{})
	s := waitTerminal(t, q, id)
	if s.Status != StatusFailed || s.Error != "boom" {
		t.Fatalf("snapshot %+v, want failed/boom", s)
	}
}

func TestPanicBecomesFailure(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	id, _ := q.SubmitWith(func(context.Context) (any, error) { panic("kaboom") }, SubmitOptions{})
	s := waitTerminal(t, q, id)
	if s.Status != StatusFailed {
		t.Fatalf("status %s, want failed", s.Status)
	}
	// The pool must survive a panicking job.
	id2, err := q.SubmitWith(func(context.Context) (any, error) { return "ok", nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, q, id2); s.Status != StatusDone {
		t.Fatalf("post-panic job status %s, want done", s.Status)
	}
}

func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	q := New(1, 1)
	gate := make(chan struct{})
	blocker := func(context.Context) (any, error) { <-gate; return nil, nil }

	first, err := q.SubmitWith(blocker, SubmitOptions{}) // picked up by the single worker
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the first job so the buffer is empty.
	for i := 0; ; i++ {
		if s, _ := q.Get(first); s.Status == StatusRunning {
			break
		}
		if i > 5000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.SubmitWith(blocker, SubmitOptions{}); err != nil { // fills the buffer
		t.Fatal(err)
	}
	if _, err := q.SubmitWith(blocker, SubmitOptions{}); !errors.Is(err, ErrFull) {
		t.Fatalf("third submit: err = %v, want ErrFull", err)
	}
	close(gate)
	q.Drain(context.Background())
}

func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	q := New(4, 1)
	q.Close()
	if _, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	q.Drain(context.Background())
}

func TestCancelQueuedJob(t *testing.T) {
	q := New(4, 1)
	gate := make(chan struct{})
	q.SubmitWith(func(context.Context) (any, error) { <-gate; return nil, nil }, SubmitOptions{})
	var ran atomic.Bool
	id, _ := q.SubmitWith(func(context.Context) (any, error) { ran.Store(true); return nil, nil }, SubmitOptions{})
	if !q.Cancel(id) {
		t.Fatal("Cancel returned false for a queued job")
	}
	close(gate)
	s := waitTerminal(t, q, id)
	if s.Status != StatusCanceled {
		t.Fatalf("status %s, want canceled", s.Status)
	}
	q.Drain(context.Background())
	if ran.Load() {
		t.Error("canceled queued job still executed")
	}
	if q.Cancel(id) {
		t.Error("Cancel of a terminal job returned true")
	}
}

// TestDrainUnderLoad is the shutdown-drain race test: many concurrent
// submitters racing a graceful Drain must leave every accepted job in
// exactly one terminal state with its result intact — nothing lost, nothing
// double-reported. Run under -race this also exercises the status
// transitions against concurrent Get polling.
func TestDrainUnderLoad(t *testing.T) {
	q := New(64, 4)
	var executed atomic.Int64
	runs := map[string]*atomic.Int64{} // per-job execution count
	var mu sync.Mutex

	var accepted []string
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				n := &atomic.Int64{}
				id, err := q.SubmitWith(func(context.Context) (any, error) {
					n.Add(1)
					executed.Add(1)
					time.Sleep(time.Duration(i%3) * time.Millisecond)
					return fmt.Sprintf("g%d-i%d", g, i), nil
				}, SubmitOptions{})
				if err != nil {
					continue // full/closed: rejected at the door, never tracked
				}
				mu.Lock()
				runs[id] = n
				accepted = append(accepted, id)
				mu.Unlock()
			}
		}(g)
	}

	// Concurrent status polling while the drain races the submitters.
	stopPoll := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopPoll:
				return
			default:
				mu.Lock()
				for _, id := range accepted {
					q.Get(id)
				}
				mu.Unlock()
				q.Depth()
				q.InFlight()
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(stopPoll)

	mu.Lock()
	defer mu.Unlock()
	var done int64
	for _, id := range accepted {
		s, ok := q.Get(id)
		if !ok {
			t.Fatalf("accepted job %s lost", id)
		}
		if !s.Status.Terminal() {
			t.Fatalf("job %s not terminal after Drain: %s", id, s.Status)
		}
		if s.Status == StatusDone {
			done++
			if s.Result == nil {
				t.Fatalf("done job %s has nil result", id)
			}
		}
		if n := runs[id].Load(); n > 1 {
			t.Fatalf("job %s executed %d times", id, n)
		}
	}
	if executed.Load() != done {
		t.Errorf("executed %d tasks but %d reported done", executed.Load(), done)
	}
	c := q.Stats()
	if got := c.Done + c.Failed + c.Canceled; got != c.Submitted {
		t.Errorf("terminal outcomes %d != submitted %d", got, c.Submitted)
	}
	if int(c.Submitted) != len(accepted) {
		t.Errorf("Stats.Submitted = %d, accepted %d", c.Submitted, len(accepted))
	}
}

// TestForcedDrainCancelsQueuedJobs: when the drain context expires, queued
// jobs are canceled without running and running jobs' contexts fire.
func TestForcedDrainCancelsQueuedJobs(t *testing.T) {
	q := New(16, 1)
	release := make(chan struct{})
	var canceledSeen atomic.Bool
	first, _ := q.SubmitWith(func(ctx context.Context) (any, error) {
		<-release
		if ctx.Err() != nil {
			canceledSeen.Store(true)
			return nil, ctx.Err()
		}
		return nil, nil
	}, SubmitOptions{})
	var queued []string
	for i := 0; i < 5; i++ {
		id, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- q.Drain(ctx) }()
	// Let the drain deadline expire while the first job blocks, then
	// release it so the pool can exit.
	time.Sleep(30 * time.Millisecond)
	close(release)
	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain err = %v, want deadline exceeded", err)
	}

	if s, _ := q.Get(first); s.Status != StatusCanceled {
		t.Errorf("running job status %s, want canceled (ctx fired mid-run)", s.Status)
	}
	if !canceledSeen.Load() {
		t.Error("running job never observed its context cancellation")
	}
	for _, id := range queued {
		s, _ := q.Get(id)
		if s.Status != StatusCanceled {
			t.Errorf("queued job %s status %s, want canceled", id, s.Status)
		}
	}
}

// TestSubmitTimeoutExpires: a job whose deadline fires mid-run sees its
// context canceled with DeadlineExceeded and finishes StatusFailed —
// distinct from an explicit cancel's StatusCanceled.
func TestSubmitTimeoutExpires(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	id, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, q, id)
	if s.Status != StatusFailed {
		t.Fatalf("status = %s, want failed (deadline)", s.Status)
	}
	if s.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("error = %q, want %q", s.Error, context.DeadlineExceeded)
	}
}

// TestSubmitTimeoutClockStartsAtRun: the deadline budget starts when a
// worker picks the job up, so time spent queued behind other work does not
// expire it.
func TestSubmitTimeoutClockStartsAtRun(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	release := make(chan struct{})
	q.SubmitWith(func(context.Context) (any, error) { <-release; return nil, nil }, SubmitOptions{})
	// Queued behind the blocker for longer than its own deadline.
	id, _ := q.SubmitWith(func(ctx context.Context) (any, error) {
		return "ran", ctx.Err()
	}, SubmitOptions{Timeout: 30 * time.Millisecond})
	time.Sleep(60 * time.Millisecond)
	close(release)
	s := waitTerminal(t, q, id)
	if s.Status != StatusDone || s.Result != "ran" {
		t.Fatalf("snapshot %+v, want done/ran (queue wait must not burn the deadline)", s)
	}
}

// TestCancelGroup: canceling a group takes down its running and queued
// members in one call, leaves ungrouped work alone, and is idempotent.
func TestCancelGroup(t *testing.T) {
	q := New(8, 1)
	defer q.Drain(context.Background())
	started := make(chan struct{})
	running, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{Group: "sweep-1", Class: ClassSweep})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker now holds the running member
	var ran atomic.Bool
	queued, err := q.SubmitWith(func(context.Context) (any, error) { ran.Store(true); return nil, nil }, SubmitOptions{Group: "sweep-1", Class: ClassSweep})
	if err != nil {
		t.Fatal(err)
	}
	other, err := q.SubmitWith(func(context.Context) (any, error) { return "bystander", nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if n := q.CancelGroup("sweep-1"); n != 2 {
		t.Fatalf("CancelGroup = %d, want 2", n)
	}
	if s := waitTerminal(t, q, running); s.Status != StatusCanceled {
		t.Errorf("running member status %s, want canceled", s.Status)
	}
	if s := waitTerminal(t, q, queued); s.Status != StatusCanceled {
		t.Errorf("queued member status %s, want canceled", s.Status)
	}
	if ran.Load() {
		t.Error("canceled queued member still executed")
	}
	if s := waitTerminal(t, q, other); s.Status != StatusDone || s.Result != "bystander" {
		t.Errorf("ungrouped job %+v, want done/bystander", s)
	}
	if n := q.CancelGroup("sweep-1"); n != 0 {
		t.Errorf("second CancelGroup = %d, want 0 (all members terminal)", n)
	}
	if n := q.CancelGroup(""); n != 0 {
		t.Errorf(`CancelGroup("") = %d, want 0`, n)
	}
	if n := q.CancelGroup("no-such-group"); n != 0 {
		t.Errorf("CancelGroup(unknown) = %d, want 0", n)
	}
}

// TestForcedDrainReleasesBlockedPool is the regression test for the pool
// wiring bug: the worker pool used to run under context.Background(), so a
// task blocked on anything but its own job context could hold a pool
// goroutine past a forced Drain forever. With the pool on the queue's base
// context, Drain's force cancels the job context the task is blocked on and
// the pool exits.
func TestForcedDrainReleasesBlockedPool(t *testing.T) {
	q := New(4, 2)
	id, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		<-ctx.Done() // only cancellation can release this task
		return nil, ctx.Err()
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to hold the job so the force hits a running task.
	for i := 0; ; i++ {
		if s, _ := q.Get(id); s.Status == StatusRunning {
			break
		}
		if i > 5000 {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired from the start: Drain must force immediately
	done := make(chan error, 1)
	go func() { done <- q.Drain(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Drain err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned: pool goroutine leaked behind a blocked task")
	}
	if s, _ := q.Get(id); s.Status != StatusCanceled {
		t.Errorf("blocked job status %s, want canceled", s.Status)
	}
}

// TestChangedSignalsTransitions pins ChangedGroup's close-and-replace
// discipline: a channel grabbed before a transition of the group's job is
// closed by it, and a channel grabbed after the group's last transition
// stays open.
func TestChangedSignalsTransitions(t *testing.T) {
	q := New(4, 1)
	defer drain(q)
	ch := q.ChangedGroup("g")
	started, release := make(chan struct{}), make(chan struct{})
	id, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		close(started)
		hold(ctx, release)
		return nil, nil
	}, SubmitOptions{Group: "g", Class: ClassSweep})
	if err != nil {
		t.Fatal(err)
	}
	await(t, started, "the job's start")
	await(t, ch, "the group channel at the job's start")
	ch = q.ChangedGroup("g")
	close(release)
	await(t, ch, "the group channel at the job's finish")
	if s, _ := q.Get(id); !s.Status.Terminal() {
		t.Fatalf("job is %s after its terminal transition closed the channel", s.Status)
	}
	select {
	case <-q.ChangedGroup("g"):
		t.Fatal("group channel grabbed after the last transition is already closed")
	default:
	}
}

// TestDoneSignalsOnlyItsJob: a job's Done channel stays open through its
// own start and other jobs' transitions, and closes at its terminal one —
// including a cancel while queued. Unknown ids report false.
func TestDoneSignalsOnlyItsJob(t *testing.T) {
	q := New(4, 1)
	defer drain(q)
	if _, ok := q.Done("job-404"); ok {
		t.Fatal("Done reported an unknown job")
	}
	release := make(chan struct{})
	running, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		hold(ctx, release)
		return nil, nil
	}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runDone, _ := q.Done(running)
	queuedDone, _ := q.Done(queued)
	otherDone, _ := q.Done(other)
	if !q.Cancel(other) {
		t.Fatal("cancel of a queued job failed")
	}
	await(t, otherDone, "the canceled job's Done")
	select {
	case <-runDone:
		t.Fatal("running job's Done closed by another job's transition")
	case <-queuedDone:
		t.Fatal("queued job's Done closed by another job's transition")
	default:
	}
	close(release)
	await(t, runDone, "the running job's Done")
	await(t, queuedDone, "the queued job's Done")
	for _, id := range []string{running, queued, other} {
		if s, _ := q.Get(id); !s.Status.Terminal() {
			t.Errorf("job %s is %s after its Done closed", id, s.Status)
		}
	}
}

// TestCancelBeatsTimeout: an explicit cancel of a deadline-carrying job
// still reports StatusCanceled.
func TestCancelBeatsTimeout(t *testing.T) {
	q := New(4, 1)
	defer q.Drain(context.Background())
	started := make(chan struct{})
	id, _ := q.SubmitWith(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOptions{Timeout: time.Hour})
	<-started
	if !q.Cancel(id) {
		t.Fatal("Cancel returned false for a running job")
	}
	s := waitTerminal(t, q, id)
	if s.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", s.Status)
	}
}
