package report

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"eccparity/internal/parallel"
	"eccparity/internal/sim"
)

// evalKey is the identity of one stored matrix: the Params fields that
// change simulated behaviour (Cycles, Warmup, Seed) plus the system class.
// Trials (Monte Carlo only), CSV (rendering only) and Workers (scheduling
// only) are deliberately excluded — points that differ only in those share
// the same matrix.
type evalKey struct {
	cycles float64
	warmup int
	seed   int64
	class  sim.SystemClass
}

// Bounds on the store: an identity is ~128 simulation results, so a
// runaway sweep over many (cycles, warmup, seed) combinations must not
// accumulate matrices without limit. Oldest-inserted is evicted first;
// within one sweep identities repeat heavily, so the bound is rarely hit.
const (
	maxStoredEvals = 8
	maxStoredFig9  = 8
)

// storeEntry is one matrix of the store: in flight until ev is set.
type storeEntry struct {
	matrix  *sim.Matrix
	work    *parallel.Shared[sim.Result]
	callers int             // Joins in progress
	ev      *sim.Evaluation // the finished matrix
}

// storeTable is one FIFO-bounded table of the store.
type storeTable struct {
	max     int
	entries map[evalKey]*storeEntry
	order   []evalKey
}

func (t *storeTable) put(k evalKey, e *storeEntry) {
	if len(t.order) >= t.max {
		delete(t.entries, t.order[0])
		t.order = t.order[1:]
	}
	t.entries[k] = e
	t.order = append(t.order, k)
}

// drop removes e, unless eviction already replaced it under k.
func (t *storeTable) drop(k evalKey, e *storeEntry) {
	if t.entries[k] != e {
		return
	}
	delete(t.entries, k)
	for i, o := range t.order {
		if o == k {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// evalStore shares the (scheme × workload) matrices of Figs. 10–17 and the
// Fig. 9 campaigns among every Runner that holds it, and is safe for
// concurrent use. Callers asking for the same in-flight matrix fill it
// together, cell by cell (parallel.Shared), instead of each computing it
// alone. An entry every caller abandoned — all canceled mid-matrix — is
// dropped with its partial cells, so nothing partial is ever cached.
type evalStore struct {
	mu          sync.Mutex
	evals, fig9 storeTable
	cellRuns    atomic.Int64 // cells simulated to completion
}

func newEvalStore() *evalStore {
	return &evalStore{
		evals: storeTable{max: maxStoredEvals, entries: map[evalKey]*storeEntry{}},
		fig9:  storeTable{max: maxStoredFig9, entries: map[evalKey]*storeEntry{}},
	}
}

// evaluation returns the matrix stored in t under k: at once when it is
// finished, otherwise after joining its fill with up to workers cells at a
// time. layout builds the matrix when k is not stored yet.
func (s *evalStore) evaluation(ctx context.Context, t *storeTable, k evalKey, workers int, layout func() *sim.Matrix) (*sim.Evaluation, error) {
	s.mu.Lock()
	e, ok := t.entries[k]
	if !ok {
		m := layout()
		e = &storeEntry{matrix: m, work: parallel.NewShared(m.Cells(), func(ctx context.Context, i int) (sim.Result, error) {
			r, err := m.RunCell(ctx, i)
			if err == nil {
				s.cellRuns.Add(1)
			}
			return r, err
		})}
		t.put(k, e)
	}
	if e.ev != nil {
		s.mu.Unlock()
		return e.ev, nil
	}
	e.callers++
	work := e.work
	s.mu.Unlock()

	results, err := work.Join(ctx, workers)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.callers--
	if err != nil {
		if e.callers == 0 {
			t.drop(k, e)
		}
		return nil, err
	}
	if e.ev == nil {
		e.ev = e.matrix.Evaluation(results)
		e.matrix, e.work = nil, nil
	}
	return e.ev, nil
}

// Executor runs experiment points through one shared evaluation store, so
// points whose Params agree on the simulated identity (Cycles, Warmup,
// Seed) reuse each other's (scheme × workload) matrices and Fig. 9
// campaigns instead of recomputing them. This is the engine of the batch
// sweep path: a grid that varies only Trials, CSV, or the experiment id
// runs its expensive simulations once.
//
// An Executor is safe for concurrent use, and concurrent points that need
// the same in-flight matrix split its cells between them. Results are
// unaffected by sharing — a matrix's bytes depend only on its identity,
// which is exactly the store key, never on which point ran each cell — and
// a point canceled mid-matrix hands its cells back to the others; when
// every point sharing a matrix is canceled, nothing is cached, matching
// the single-Runner behaviour. The daemon keeps one for all its workers.
type Executor struct {
	progress io.Writer
	store    *evalStore
}

// NewExecutor builds an Executor. progress receives campaign tickers (nil
// silences them); it never receives report text.
func NewExecutor(progress io.Writer) *Executor {
	return &Executor{progress: progress, store: newEvalStore()}
}

// Run executes one experiment point under ctx, exactly like
// NewRunner(p, progress).RunContext(ctx, experiment) except that the
// expensive intermediates are shared with the Executor's previous points.
func (x *Executor) Run(ctx context.Context, experiment string, p Params) (Report, error) {
	return newRunner(p, x.progress, x.store).RunContext(ctx, experiment)
}

// RunBatch executes an ordered slice of sweep points through one Executor
// and returns their Reports in order. Execution is sequential and
// fail-fast: the first error (typically ctx.Err() after a cancel) aborts
// the batch. Each point's Report is byte-identical to what
// NewRunner(pt.Params, progress).RunContext(ctx, pt.Experiment) returns —
// the batch only removes redundant recomputation, never changes results.
// Callers should pass normalized Params (Params.Normalized) so that points
// meant to share an identity actually do.
func RunBatch(ctx context.Context, points []SweepPoint, progress io.Writer) ([]Report, error) {
	x := NewExecutor(progress)
	out := make([]Report, len(points))
	for i, pt := range points {
		rep, err := x.Run(ctx, pt.Experiment, pt.Params)
		if err != nil {
			return nil, fmt.Errorf("report: batch point %d (%s): %w", i, pt.Experiment, err)
		}
		out[i] = rep
	}
	return out, nil
}
