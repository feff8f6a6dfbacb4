// Package parallel provides the one fan-out primitive of this repository,
// Shared: a fixed set of independent tasks that any number of callers
// complete together. Both kinds of independent work in the evaluation run
// on it — the Monte Carlo campaigns of the fault model (Figs. 2/8 and Table
// III's EOL columns run thousands of independent lifetimes, in fixed-size
// trial chunks) and the (scheme × workload) simulation grids (Figs. 9–17
// run sixteen independent simulations per scheme).
//
// The contract that matters for reproducibility: tasks are identified by
// index, results are collected in index order, and nothing a task computes
// may depend on scheduling. Callers that need randomness derive one RNG per
// task index (see faultmodel.TrialSeed), so a campaign's output is
// bit-identical at any worker count — workers=1 and workers=NumCPU produce
// the same bytes.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
)

// Workers clamps a requested worker count to [1, n]: values ≤ 0 select
// runtime.NumCPU(), and the pool never exceeds n, the number of tasks.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	if requested > n {
		requested = n
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// yieldKey is the context key of a WithYield hook.
type yieldKey struct{}

// WithYield returns a copy of ctx carrying yield, which Yield calls in place
// of runtime.Gosched. It lets whoever starts a long computation decide how
// the computation's periodic checkpoints give up their processor.
func WithYield(ctx context.Context, yield func()) context.Context {
	return context.WithValue(ctx, yieldKey{}, yield)
}

// Yield gives up the processor through ctx's WithYield hook, or through
// runtime.Gosched when ctx carries none.
func Yield(ctx context.Context) {
	if yield, _ := ctx.Value(yieldKey{}).(func()); yield != nil {
		yield()
		return
	}
	runtime.Gosched()
}

// capture invokes fn for one task, converting a panic into an error so a
// single bad task cannot kill the whole campaign's process.
func capture[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: task %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(ctx, i)
}
