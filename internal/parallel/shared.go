package parallel

import (
	"context"
	"sync"
)

// Shared is a fixed set of n independent tasks that any number of callers
// complete together. Each Join claims tasks nobody has started and runs up
// to its workers of them at once — Map's fan-out — and, once nothing is
// left to claim, waits for the tasks other callers are running. A caller
// whose context is canceled mid-task hands that task back for the remaining
// callers, so the set completes as long as one caller stays, and because a
// task's result depends only on its index, the completed results are the
// same whichever caller ran each task.
//
// A task error that is not its caller's own cancellation (a failure, or a
// captured panic) fails the whole set: every Join returns it.
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

// Join works on the set until it completes, fails, or ctx is canceled, and
// returns only after every task it started has settled, so no goroutine of
// this caller outlives the call. It returns the n results in index order —
// one slice shared by every caller, which must not be modified — or the
// set's failure, or ctx's error when this caller gave up first.
func (s *Shared[T]) Join(ctx context.Context, workers int) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var wg sync.WaitGroup
	for w := Workers(workers, len(s.results)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(ctx)
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
// the set is done or the caller's ctx is canceled.
func (s *Shared[T]) work(ctx context.Context) {
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
		switch {
		case s.err != nil:
			// The set failed while this task ran; nothing to record.
		case err == nil:
			s.results[i] = res
			s.left--
			if s.left == 0 {
				close(s.done)
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
	}
}
