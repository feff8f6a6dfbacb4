package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedOrderedResults: a single caller gets every task's result in
// index order at any worker count.
func TestSharedOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		got, err := NewShared(57, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}).Join(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 57 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestSharedBoundedConcurrency: one caller never runs more than its
// workers tasks at once.
func TestSharedBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := NewShared(40, func(_ context.Context, i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	}).Join(context.Background(), workers)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", p, workers)
	}
}

// TestSharedErrorStopsRemaining: a task error fails the set, and no
// further task is claimed after it.
func TestSharedErrorStopsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := NewShared(1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}).Join(context.Background(), 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("error did not stop the set: %d tasks ran", n)
	}
}

// TestSharedContextCancellation: a caller whose context is already
// canceled runs no task and returns ctx's error.
func TestSharedContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := NewShared(100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return i, nil
	}).Join(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a canceled context", ran.Load())
	}
}

// TestSharedHandBack: a caller canceled mid-task hands the task back, and
// the caller that stays runs it and completes the set.
func TestSharedHandBack(t *testing.T) {
	type callerKey struct{}
	started := make(chan struct{})
	var runs [4]atomic.Int64
	s := NewShared(4, func(ctx context.Context, i int) (int, error) {
		runs[i].Add(1)
		if ctx.Value(callerKey{}) == "a" {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return i * i, nil
	})
	ctxA, cancelA := context.WithCancel(context.WithValue(context.Background(), callerKey{}, "a"))
	errA := make(chan error)
	go func() {
		_, err := s.Join(ctxA, 1)
		errA <- err
	}()
	<-started // a holds task 0
	done := make(chan []int)
	go func() {
		res, err := s.Join(context.Background(), 2)
		if err != nil {
			t.Errorf("staying caller: %v", err)
		}
		done <- res
	}()
	cancelA()
	// The canceled caller returns its ctx error, or the results when the
	// staying caller completed the set first.
	if err := <-errA; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller: %v, want context.Canceled", err)
	}
	res := <-done
	for i, v := range res {
		if v != i*i {
			t.Errorf("result %d = %d, want %d", i, v, i*i)
		}
	}
	if runs[0].Load() != 2 {
		t.Errorf("task 0 ran %d times, want 2 (handed back once)", runs[0].Load())
	}
	for i := 1; i < 4; i++ {
		if runs[i].Load() != 1 {
			t.Errorf("task %d ran %d times, want 1", i, runs[i].Load())
		}
	}
	// A later caller gets the completed results without running anything.
	if again, err := s.Join(context.Background(), 4); err != nil || len(again) != 4 || runs[1].Load() != 1 {
		t.Errorf("join after completion: %v, %v", again, err)
	}
}

// TestSharedFailure: a task failure fails the set for every caller.
func TestSharedFailure(t *testing.T) {
	s := NewShared(8, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("kaboom")
		}
		return i, nil
	})
	for range 2 {
		if _, err := s.Join(context.Background(), 2); err == nil || !strings.Contains(err.Error(), "task 3 panicked") {
			t.Fatalf("err = %v, want the captured panic", err)
		}
	}
}

// TestSharedPanicCaptured: a task panic returns as an error naming the
// task index and the panic value.
func TestSharedPanicCaptured(t *testing.T) {
	_, err := NewShared(10, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("kaboom")
		}
		return i, nil
	}).Join(context.Background(), 4)
	if err == nil || !strings.Contains(err.Error(), "task 5 panicked: kaboom") {
		t.Fatalf("panic not captured: %v", err)
	}
}

// TestSharedZeroTasks: an empty set completes at once without running
// anything.
func TestSharedZeroTasks(t *testing.T) {
	res, err := NewShared(0, func(context.Context, int) (int, error) {
		t.Fatal("must not run")
		return 0, nil
	}).Join(context.Background(), 4)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty set: %v, %v", res, err)
	}
}

// TestSharedBoundaryHook: a WithBoundary hook runs on the caller's
// goroutine once after each task it completes, except the set's last, and
// never while a task is claimed; tasks see no hook, so a set nested in a
// task cannot call it; a canceled caller stops calling it.
func TestSharedBoundaryHook(t *testing.T) {
	var hooks, running atomic.Int64
	hook := func() {
		if running.Load() != 0 {
			t.Error("hook ran while the goroutine held a task")
		}
		hooks.Add(1)
	}
	s := NewShared(5, func(ctx context.Context, i int) (int, error) {
		running.Add(1)
		defer running.Add(-1)
		if h, _ := ctx.Value(boundaryKey{}).(func()); h != nil {
			t.Error("task context carries the boundary hook")
		}
		inner, err := NewShared(2, func(context.Context, int) (int, error) { return 0, nil }).Join(ctx, 1)
		return i + len(inner), err
	})
	if _, err := s.Join(WithBoundary(context.Background(), hook), 1); err != nil {
		t.Fatal(err)
	}
	if n := hooks.Load(); n != 4 {
		t.Errorf("hook ran %d times over 5 tasks, want 4 (none after the last)", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hooks.Store(0)
	s = NewShared(5, func(context.Context, int) (int, error) { return 0, nil })
	if _, err := s.Join(WithBoundary(ctx, func() { hooks.Add(1); cancel() }), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller canceled from its hook: %v, want context.Canceled", err)
	}
	if n := hooks.Load(); n != 1 {
		t.Errorf("hook ran %d times after the caller was canceled, want 1", n)
	}
}

// TestSharedNoHookAfterLastTask forces the interleaving of a lending job:
// one goroutine's hook is still running (a lent job) when the caller's
// other goroutine completes the set's last task. That goroutine must not
// call the hook again: the set is done, and a second lend would only hold
// the caller's Join behind it.
func TestSharedNoHookAfterLastTask(t *testing.T) {
	parked := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	s := NewShared(3, func(_ context.Context, i int) (int, error) {
		if i < 2 {
			close(parked[i])
			<-release[i]
		}
		return i, nil
	})
	var hooks, afterDone atomic.Int64
	lending, releaseLend := make(chan struct{}), make(chan struct{})
	hook := func() {
		select {
		case <-s.done:
			afterDone.Add(1)
		default:
		}
		if hooks.Add(1) == 1 {
			close(lending)
			<-releaseLend
		}
	}
	joined := make(chan error, 1)
	go func() {
		_, err := s.Join(WithBoundary(context.Background(), hook), 2)
		joined <- err
	}()
	<-parked[0]
	<-parked[1]
	close(release[0]) // one goroutine completes task 0 and starts lending
	<-lending
	close(release[1]) // the other completes task 1, then the last task
	<-s.done
	close(releaseLend)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if n := hooks.Load(); n != 2 {
		t.Errorf("hook ran %d times over 3 tasks, want 2 (none after the last)", n)
	}
	if n := afterDone.Load(); n != 0 {
		t.Errorf("hook started %d times after the set was done", n)
	}
}
