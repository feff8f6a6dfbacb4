package parallel

import (
	"context"
	"sync"
)

// Shared is a fixed set of n independent tasks that any number of callers
// complete together. Each Join claims tasks nobody has started and runs up
// to its workers of them at once, and once nothing is left to claim, waits
// for the tasks other callers are running. A caller whose context is
// canceled mid-task hands that task back for the remaining callers, so the
// set completes as long as one caller stays, and because a task's result
// depends only on its index, the completed results are the same whichever
// caller ran each task.
//
// A task error that is not its caller's own cancellation (a failure, or a
// captured panic) fails the whole set: every Join returns it.
//
// A caller's context may carry a boundary hook (WithBoundary), which Join
// runs on the caller's goroutines between tasks.
type Shared[T any] struct {
	fn func(ctx context.Context, i int) (T, error)

	mu      sync.Mutex
	todo    []int // unclaimed task indices, claimed from the front
	results []T
	left    int           // tasks not yet finished
	err     error         // the set's failure, terminal
	handed  chan struct{} // closed, then replaced, when a task is handed back
	done    chan struct{} // closed once left == 0 or err != nil
}

// NewShared builds the task set fn(ctx, i) for i in [0, n). No task runs
// until a caller joins.
func NewShared[T any](n int, fn func(ctx context.Context, i int) (T, error)) *Shared[T] {
	if n < 0 {
		n = 0
	}
	s := &Shared[T]{
		fn: fn, todo: make([]int, n), results: make([]T, n), left: n,
		handed: make(chan struct{}), done: make(chan struct{}),
	}
	for i := range s.todo {
		s.todo[i] = i
	}
	if n == 0 {
		close(s.done)
	}
	return s
}

// boundaryKey is the context key of a WithBoundary hook.
type boundaryKey struct{}

// WithBoundary returns a copy of ctx carrying hook. Every Shared.Join under
// that context calls hook on the caller's goroutine after each task the
// caller completes, while ctx is live and before the goroutine claims its
// next task — except after the task that completes the set. The goroutine
// holds no claimed task while hook runs, so hook may run other work inline
// without stalling the set for other callers.
// Tasks see ctx without the hook, so a set nested inside a task never calls
// it while its goroutine holds an outer task.
func WithBoundary(ctx context.Context, hook func()) context.Context {
	return context.WithValue(ctx, boundaryKey{}, hook)
}

// Join works on the set until it completes, fails, or ctx is canceled, and
// returns only after every task it started has settled, so no goroutine of
// this caller outlives the call. It returns the n results in index order —
// one slice shared by every caller, which must not be modified — or the
// set's failure, or ctx's error when this caller gave up first.
func (s *Shared[T]) Join(ctx context.Context, workers int) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hook, _ := ctx.Value(boundaryKey{}).(func())
	if hook != nil {
		ctx = WithBoundary(ctx, nil)
	}
	var wg sync.WaitGroup
	for w := Workers(workers, len(s.results)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(ctx, hook)
		}()
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.err != nil:
		return nil, s.err
	case s.left == 0:
		return s.results, nil
	default:
		return nil, ctx.Err()
	}
}

// work is one of a caller's worker goroutines: claim, run, settle, until
// the set is done or the caller's ctx is canceled. hook (nil = none) runs
// after each task this goroutine completes while the set is not yet done:
// once nothing is left to run, a hook could only delay the caller's return.
func (s *Shared[T]) work(ctx context.Context, hook func()) {
	for {
		s.mu.Lock()
		if len(s.todo) == 0 {
			handed := s.handed
			s.mu.Unlock()
			select {
			case <-s.done:
				return
			case <-ctx.Done():
				return
			case <-handed:
				continue
			}
		}
		if s.err != nil || ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		i := s.todo[0]
		s.todo = s.todo[1:]
		s.mu.Unlock()

		res, err := capture(ctx, i, s.fn)

		s.mu.Lock()
		boundary := false // a task completed and the set is not done
		switch {
		case s.err != nil:
			// The set failed while this task ran; nothing to record.
		case err == nil:
			s.results[i] = res
			s.left--
			if s.left == 0 {
				close(s.done)
			} else {
				boundary = true
			}
		case ctx.Err() != nil:
			s.todo = append(s.todo, i)
			close(s.handed)
			s.handed = make(chan struct{})
		default:
			s.err = err
			close(s.done)
		}
		s.mu.Unlock()
		if boundary && hook != nil && ctx.Err() == nil {
			hook()
		}
	}
}
