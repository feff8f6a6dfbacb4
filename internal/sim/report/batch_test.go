package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"eccparity/internal/sim"
)

// batchTestPoints is a mixed sweep: matrix figures over both classes (the
// quad points share one evaluation matrix, the dual points another), the
// Fig. 9 campaign, a Monte Carlo table, a CSV rendering variant, and a
// Trials variant — the last two share the simulated identity of earlier
// points, so the batch path reuses their matrices while the independent
// baseline recomputes everything.
func batchTestPoints() []SweepPoint {
	p := Params{Cycles: 10000, Warmup: 1000, Trials: 30, Seed: 1}
	csv := p
	csv.CSV = true
	trials2 := p
	trials2.Trials = 60
	return []SweepPoint{
		{Experiment: "fig10", Params: p},
		{Experiment: "fig12", Params: p},
		{Experiment: "fig11", Params: p},
		{Experiment: "fig9", Params: p},
		{Experiment: "table3", Params: p},
		{Experiment: "fig10", Params: csv},
		{Experiment: "fig13", Params: trials2},
		{Experiment: "fig9", Params: trials2},
	}
}

// TestRunBatchMatchesIndependentRuns is the batch determinism contract: a
// multi-point sweep through one Executor's shared store must produce, per
// point, byte-identical Text and Data to N independent single-Runner runs
// — at worker counts 1 and 8.
func TestRunBatchMatchesIndependentRuns(t *testing.T) {
	ctx := context.Background()
	base := batchTestPoints()
	for _, workers := range []int{1, 8} {
		points := make([]SweepPoint, len(base))
		copy(points, base)
		for i := range points {
			points[i].Params.Workers = workers
		}
		batch, err := RunBatch(ctx, points, nil)
		if err != nil {
			t.Fatalf("workers=%d: RunBatch: %v", workers, err)
		}
		if len(batch) != len(points) {
			t.Fatalf("workers=%d: got %d reports for %d points", workers, len(batch), len(points))
		}
		for i, pt := range points {
			single, err := NewRunner(pt.Params, nil).RunContext(ctx, pt.Experiment)
			if err != nil {
				t.Fatalf("workers=%d point %d (%s): single run: %v", workers, i, pt.Experiment, err)
			}
			if batch[i].Text != single.Text {
				t.Errorf("workers=%d point %d (%s): batch Text diverges from independent run\nbatch:\n%s\nsingle:\n%s",
					workers, i, pt.Experiment, batch[i].Text, single.Text)
			}
			bd, err := json.Marshal(batch[i].Data)
			if err != nil {
				t.Fatalf("marshal batch data: %v", err)
			}
			sd, err := json.Marshal(single.Data)
			if err != nil {
				t.Fatalf("marshal single data: %v", err)
			}
			if string(bd) != string(sd) {
				t.Errorf("workers=%d point %d (%s): batch Data diverges from independent run", workers, i, pt.Experiment)
			}
		}
	}
}

// TestExecutorCancellationCachesNothing pins the cancel-retry behaviour:
// a point canceled mid-matrix must leave the store empty, so a later
// retry through the same Executor recomputes — and matches — a fresh run.
func TestExecutorCancellationCachesNothing(t *testing.T) {
	p := Params{Cycles: 10000, Warmup: 1000, Trials: 30, Seed: 1}
	x := NewExecutor(nil)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Run(canceled, "fig10", p); err == nil {
		t.Fatal("canceled point unexpectedly succeeded")
	}
	if n := x.store.size(); n != 0 {
		t.Fatalf("canceled point left %d cached entries in the store", n)
	}
	got, err := x.Run(context.Background(), "fig10", p)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	want, err := NewRunner(p, nil).RunContext(context.Background(), "fig10")
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Error("retry after cancel diverges from fresh run")
	}
}

// TestRunBatchSchemeAxis extends the batch determinism contract to the
// scheme axis: a grid expanded over schemes runs through one Executor
// byte-identically to independent single Runners, at worker counts 1 and 8
// — the property that lets the daemon's sweep path serve scheme axes from
// its shared executor.
func TestRunBatchSchemeAxis(t *testing.T) {
	ctx := context.Background()
	base := Params{Cycles: 4000, Warmup: 500, Trials: 8, Seed: 1}
	expanded, err := ExpandSweep("faultinject", base,
		SweepAxes{Schemes: []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pass := base
	pass.Scheme, pass.SchemeOptions = "ondie+chipkill", `{"passthrough":true}`
	expanded = append(expanded,
		SweepPoint{Experiment: "faultinject", Params: pass},
		SweepPoint{Experiment: "schemeeval", Params: base},
		SweepPoint{Experiment: "harpprofile", Params: base},
	)

	var prev []Report
	for _, workers := range []int{1, 8} {
		points := make([]SweepPoint, len(expanded))
		copy(points, expanded)
		for i := range points {
			points[i].Params.Workers = workers
		}
		batch, err := RunBatch(ctx, points, nil)
		if err != nil {
			t.Fatalf("workers=%d: RunBatch: %v", workers, err)
		}
		for i, pt := range points {
			single, err := NewRunner(pt.Params, nil).RunContext(ctx, pt.Experiment)
			if err != nil {
				t.Fatalf("workers=%d point %d (%s %s): single run: %v", workers, i, pt.Experiment, pt.Params.Scheme, err)
			}
			if batch[i].Text != single.Text {
				t.Errorf("workers=%d point %d (%s %s): batch Text diverges from independent run",
					workers, i, pt.Experiment, pt.Params.Scheme)
			}
			if prev != nil && batch[i].Text != prev[i].Text {
				t.Errorf("point %d (%s %s): Text differs between workers=1 and workers=8",
					i, pt.Experiment, pt.Params.Scheme)
			}
		}
		prev = batch
	}
}

// size reports how many matrices the store holds, finished or in flight.
func (s *evalStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evals.entries) + len(s.fig9.entries)
}

// callers reports how many Joins are in progress on the quad matrix of p.
func (s *evalStore) callers(p Params) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.evals.entries[evalKey{cycles: p.Cycles, warmup: p.Warmup, seed: p.Seed, class: sim.QuadEq}]
	if e == nil {
		return 0
	}
	return e.callers
}

// cellSignal is a progress writer whose fired channel closes once the
// first evaluation-matrix cell completes.
type cellSignal struct {
	once  sync.Once
	fired chan struct{}
}

func (c *cellSignal) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("\rsim ")) {
		c.once.Do(func() { close(c.fired) })
	}
	return len(b), nil
}

// runConcurrently runs one point per id on x at once and returns the
// reports and errors in id order.
func runConcurrently(x *Executor, ctxs []context.Context, ids []string, p Params) ([]Report, []error) {
	reps := make([]Report, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = x.Run(ctxs[i], ids[i], p)
		}()
	}
	wg.Wait()
	return reps, errs
}

// sameReport fails t unless got matches a standalone Runner's report.
func sameReport(t *testing.T, label string, got Report, p Params, id string) {
	t.Helper()
	want, err := NewRunner(p, nil).RunContext(context.Background(), id)
	if err != nil {
		t.Fatalf("%s: standalone %s: %v", label, id, err)
	}
	gd, _ := json.Marshal(got.Data)
	wd, _ := json.Marshal(want.Data)
	if got.Text != want.Text || !bytes.Equal(gd, wd) {
		t.Errorf("%s: %s diverges from a standalone run", label, id)
	}
}

// TestSharedStoreRunsEachCellOnce is the shared-store contract: two points
// that need the same quad matrix (fig10 and fig14), run concurrently on one
// store as two job workers would, simulate each of its 8×16 cells once
// between them, and both render the bytes of a standalone Runner.
func TestSharedStoreRunsEachCellOnce(t *testing.T) {
	ctx := context.Background()
	ids := []string{"fig10", "fig14"}
	for _, workers := range []int{1, 4} {
		p := Params{Cycles: 4000, Warmup: 500, Trials: 12, Seed: 1, Workers: workers}
		x := NewExecutor(nil)
		reps, errs := runConcurrently(x, []context.Context{ctx, ctx}, ids, p)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, ids[i], err)
			}
		}
		if n := x.store.cellRuns.Load(); n != 128 {
			t.Errorf("workers=%d: %d cell runs, want 128 (each quad cell once)", workers, n)
		}
		for i, id := range ids {
			sameReport(t, fmt.Sprintf("workers=%d", workers), reps[i], p, id)
		}
	}
}

// TestSharedStoreCancellation pins cancellation on a shared matrix: a
// caller canceled mid-matrix hands its cells back and the other caller
// finishes the matrix with the standalone bytes; when every caller is
// canceled the partial matrix is dropped. No goroutine outlives its Run.
func TestSharedStoreCancellation(t *testing.T) {
	p := Params{Cycles: 4000, Warmup: 500, Trials: 12, Seed: 1, Workers: 2}
	base := runtime.NumGoroutine()
	for _, cancelBoth := range []bool{false, true} {
		sig := &cellSignal{fired: make(chan struct{})}
		x := NewExecutor(sig)
		ctxA, cancelA := context.WithCancel(context.Background())
		ctxB, cancelB := context.WithCancel(context.Background())
		go func() {
			<-sig.fired
			for x.store.callers(p) < 2 {
				time.Sleep(time.Millisecond)
			}
			cancelA()
			if cancelBoth {
				cancelB()
			}
		}()
		reps, errs := runConcurrently(x, []context.Context{ctxA, ctxB}, []string{"fig10", "fig10"}, p)
		cancelB()
		if !errors.Is(errs[0], context.Canceled) {
			t.Fatalf("cancelBoth=%v: canceled caller returned %v, want context.Canceled", cancelBoth, errs[0])
		}
		if cancelBoth {
			if !errors.Is(errs[1], context.Canceled) {
				t.Fatalf("second canceled caller returned %v, want context.Canceled", errs[1])
			}
			if n := x.store.size(); n != 0 {
				t.Errorf("every caller canceled, yet the store holds %d entries", n)
			}
			continue
		}
		if errs[1] != nil {
			t.Fatalf("remaining caller: %v", errs[1])
		}
		if n := x.store.cellRuns.Load(); n != 128 {
			t.Errorf("%d completed cell runs, want 128", n)
		}
		sameReport(t, "after a cancel", reps[1], p, "fig10")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the runs, %d before", n, base)
	}
}
