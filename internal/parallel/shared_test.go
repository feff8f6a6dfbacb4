package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

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

// TestSharedFailure: a task failure (here a panic) fails the set for every
// caller, and an empty set completes at once.
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
	if res, err := NewShared(0, func(context.Context, int) (int, error) { return 0, nil }).Join(context.Background(), 4); err != nil || len(res) != 0 {
		t.Fatalf("empty set: %v, %v", res, err)
	}
}

// TestSharedBoundaryHook: a WithBoundary hook runs on the caller's
// goroutine once after each task it completes and never while a task is
// claimed; tasks see no hook, so a set nested in a task cannot call it; a
// canceled caller stops calling it.
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
	if n := hooks.Load(); n != 5 {
		t.Errorf("hook ran %d times over 5 tasks, want 5", n)
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
