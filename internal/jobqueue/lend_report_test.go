package jobqueue_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"eccparity/internal/jobqueue"
	"eccparity/internal/sim/report"
)

// TestLendSharedMatrixBytes is lending's deadlock and bytes check on the
// real evaluation store: a sweep fig14 point starts the shared quad matrix
// on the only worker, lends that worker at its first cell boundary to a
// queued interactive fig10 point, which joins the same in-flight matrix
// from inside the lender's own fill. Both must finish, the interactive
// point first, with the bytes of a standalone Runner.
func TestLendSharedMatrixBytes(t *testing.T) {
	p := report.Params{Cycles: 4000, Warmup: 500, Trials: 12, Seed: 1, Workers: 2}
	x := report.NewExecutor(nil)
	q := jobqueue.New(8, 1)
	defer q.Drain(context.Background())

	started, start := make(chan struct{}), make(chan struct{})
	sweep, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		close(started)
		<-start
		return x.Run(ctx, "fig14", p)
	}, jobqueue.SubmitOptions{Class: jobqueue.ClassSweep, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	probe, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		return x.Run(ctx, "fig10", p)
	}, jobqueue.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(start)

	got := map[string]jobqueue.Snapshot{}
	for id, name := range map[string]string{sweep: "fig14", probe: "fig10"} {
		done, _ := q.Done(id)
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			s, _ := q.Get(id)
			t.Fatalf("%s stuck in %s: lending deadlocked", name, s.Status)
		}
		got[name], _ = q.Get(id)
	}
	if q.Stats().Lent != 1 {
		t.Fatalf("lent %d jobs, want the fig10 probe lent once", q.Stats().Lent)
	}
	if got["fig10"].Finished.After(got["fig14"].Finished) {
		t.Error("lent fig10 finished after its lender")
	}
	for id, s := range got {
		if s.Status != jobqueue.StatusDone {
			t.Fatalf("%s: %s %s", id, s.Status, s.Error)
		}
		want, err := report.NewRunner(p, nil).RunContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		rep := s.Result.(report.Report)
		gd, _ := json.Marshal(rep.Data)
		wd, _ := json.Marshal(want.Data)
		if rep.Text != want.Text || !bytes.Equal(gd, wd) {
			t.Errorf("%s computed through a lent worker diverges from a standalone run", id)
		}
	}
}

// TestLendMonteCarloCampaign: a running batch fig8 job reaches a task
// boundary at every chunk of Monte Carlo trials, so it lends its only
// worker to an interactive job queued behind it long before the campaign
// ends, and the campaign's bytes are those of a standalone Runner.
func TestLendMonteCarloCampaign(t *testing.T) {
	p := report.Params{Trials: 2000, Seed: 1, Workers: 1}
	q := jobqueue.New(8, 1)
	defer q.Drain(context.Background())

	started, start := make(chan struct{}), make(chan struct{})
	batch, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		close(started)
		<-start
		return report.NewRunner(p, nil).RunContext(ctx, "fig8")
	}, jobqueue.SubmitOptions{Class: jobqueue.ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	probe, err := q.SubmitWith(func(context.Context) (any, error) { return "probe", nil }, jobqueue.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(start)

	got := map[string]jobqueue.Snapshot{}
	for _, id := range []string{batch, probe} {
		done, _ := q.Done(id)
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			s, _ := q.Get(id)
			t.Fatalf("%s stuck in %s", id, s.Status)
		}
		got[id], _ = q.Get(id)
		if got[id].Status != jobqueue.StatusDone {
			t.Fatalf("%s: %s %s", id, got[id].Status, got[id].Error)
		}
	}
	if q.Stats().Lent != 1 {
		t.Fatalf("lent %d jobs, want the probe lent once", q.Stats().Lent)
	}
	if !got[probe].Finished.Before(got[batch].Finished) {
		t.Error("the interactive probe waited for the whole Monte Carlo campaign")
	}
	want, err := report.NewRunner(p, nil).RunContext(context.Background(), "fig8")
	if err != nil {
		t.Fatal(err)
	}
	if got[batch].Result.(report.Report).Text != want.Text {
		t.Error("fig8 computed on a lending worker diverges from a standalone run")
	}
}
