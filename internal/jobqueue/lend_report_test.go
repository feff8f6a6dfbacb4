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

	start := make(chan struct{})
	sweep, err := q.SubmitWith(func(ctx context.Context) (any, error) {
		<-start
		return x.Run(ctx, "fig14", p)
	}, jobqueue.SubmitOptions{Class: jobqueue.ClassSweep, Group: "g"})
	if err != nil {
		t.Fatal(err)
	}
	for {
		ch := q.Changed()
		if s, _ := q.Get(sweep); s.Status == jobqueue.StatusRunning {
			break
		}
		<-ch
	}
	probe, err := q.Submit(func(ctx context.Context) (any, error) {
		return x.Run(ctx, "fig10", p)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(start)

	got := map[string]jobqueue.Snapshot{}
	for id, name := range map[string]string{sweep: "fig14", probe: "fig10"} {
		for {
			ch := q.Changed()
			s, _ := q.Get(id)
			if s.Status.Terminal() {
				got[name] = s
				break
			}
			select {
			case <-ch:
			case <-time.After(2 * time.Minute):
				t.Fatalf("%s stuck in %s: lending deadlocked", name, s.Status)
			}
		}
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
