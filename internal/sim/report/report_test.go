package report

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// smallParams is a reduced budget: big enough to exercise the real code
// paths, small enough for -race CI.
var smallParams = Params{Cycles: 4000, Warmup: 500, Trials: 12, Seed: 1}

func TestRegistryCoversBothCLIs(t *testing.T) {
	if got := len(AllIDs()); got != 17 {
		t.Errorf("AllIDs: %d ids, want 17 (%v)", got, AllIDs())
	}
	if len(IDs()) != 23 {
		t.Errorf("IDs: %d ids, want 23", len(IDs()))
	}
	// The Monte Carlo figures and the three daemon-first ids are
	// registered but stay out of `-exp all` (its golden pin).
	for _, id := range []string{"fig2", "fig8", "fig18", "schemeeval", "faultinject", "harpprofile"} {
		if !Known(id) || registry[id].inAll {
			t.Errorf("%q: Known=%v inAll=%v, want registered and outside -exp all", id, Known(id), registry[id].inAll)
		}
	}
	for _, id := range IDs() {
		if !Known(id) {
			t.Errorf("Known(%q) = false", id)
		}
		if Title(id) == "" {
			t.Errorf("Title(%q) empty", id)
		}
	}
	if Known("fig99") {
		t.Error(`Known("fig99") = true`)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := NewRunner(smallParams, nil).RunContext(context.Background(), "fig99"); err == nil {
		t.Fatal("Run(fig99) must error")
	}
}

// TestWorkerInvariantText asserts the API contract the result cache depends
// on: a Report's Text is byte-identical at workers=1 and workers=8. The
// three ids cover the simulation grid (fig9), the Monte Carlo campaigns
// (table3, fig8) and the shared-evaluation figures are pinned end-to-end by
// the cmd/eccsim golden test.
func TestWorkerInvariantText(t *testing.T) {
	for _, id := range []string{"fig9", "table3", "fig8", "fig2"} {
		var texts []string
		for _, workers := range []int{1, 8} {
			p := smallParams
			p.Workers = workers
			rep, err := NewRunner(p, nil).RunContext(context.Background(), id)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			if rep.Text == "" {
				t.Fatalf("%s workers=%d: empty text", id, workers)
			}
			texts = append(texts, rep.Text)
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: text differs between workers=1 and workers=8", id)
		}
	}
}

// TestSeedChangesMonteCarloText guards against an experiment silently
// ignoring the seed (the request hash includes it, so two seeds must not
// collapse to one cached byte stream for seed-dependent experiments).
func TestSeedChangesMonteCarloText(t *testing.T) {
	run := func(seed int64) string {
		p := smallParams
		p.Seed = seed
		rep, err := NewRunner(p, nil).RunContext(context.Background(), "fig8")
		if err != nil {
			t.Fatal(err)
		}
		return rep.Text
	}
	if run(1) == run(99) {
		t.Error("fig8: seeds 1 and 99 produced identical text")
	}
}

func TestCSVChangesComparisonRendering(t *testing.T) {
	p := smallParams
	p.CSV = true
	r := NewRunner(p, nil)
	rep, err := r.RunContext(context.Background(), "fig13")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "workload,vs_") {
		t.Errorf("CSV rendering missing header row:\n%s", rep.Text)
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	got := Params{Seed: 7}.Normalized()
	want := DefaultParams()
	want.Seed = 7
	if got != want {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	if p := (Params{}).Normalized(); p != DefaultParams() {
		t.Errorf("zero Params normalized to %+v, want defaults", p)
	}
}

// cancelOnWrite is a progress writer that cancels a context at the first
// progress line: the first simulation cell of a shared run completing.
type cancelOnWrite struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnWrite) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return len(p), nil
}

// TestRunnerSharedAcrossGoroutines: one Runner serves two concurrent
// RunContext calls on the same matrix. The one whose context is canceled
// mid-run returns context.Canceled; the other completes with the bytes of
// a solo run.
func TestRunnerSharedAcrossGoroutines(t *testing.T) {
	p := smallParams
	p.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(p, &cancelOnWrite{cancel: cancel})
	var wg sync.WaitGroup
	var canceledErr, completedErr error
	var completed Report
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, canceledErr = r.RunContext(ctx, "fig13")
	}()
	go func() {
		defer wg.Done()
		completed, completedErr = r.RunContext(context.Background(), "fig13")
	}()
	wg.Wait()
	if !errors.Is(canceledErr, context.Canceled) {
		t.Errorf("canceled run: err = %v, want context.Canceled", canceledErr)
	}
	if completedErr != nil {
		t.Fatalf("completing run: %v", completedErr)
	}
	solo, err := NewRunner(p, nil).RunContext(context.Background(), "fig13")
	if err != nil {
		t.Fatal(err)
	}
	gd, _ := json.Marshal(completed.Data)
	wd, _ := json.Marshal(solo.Data)
	if completed.Text != solo.Text || !bytes.Equal(gd, wd) {
		t.Error("report completed on a shared Runner diverges from a solo run")
	}
}
