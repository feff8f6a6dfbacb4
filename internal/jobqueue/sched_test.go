package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mkJob builds a minimal queued job for white-box scheduler tests.
func mkJob(id string, c Class, submitter, group string, created time.Time) *job {
	return &job{
		id: id, group: group, schedKey: schedKey(submitter, group),
		class: c, status: StatusQueued, created: created,
	}
}

// TestSchedClassWeights pins the deficit round-robin drain ratio: with all
// three classes backlogged, each credit round serves 8 interactive, 2 sweep
// and 1 batch job — weighted sharing, not strict priority.
func TestSchedClassWeights(t *testing.T) {
	var s sched
	now := time.Now()
	for i := 0; i < 33; i++ {
		s.push(mkJob(fmt.Sprintf("i%d", i), ClassInteractive, "", "", now))
		s.push(mkJob(fmt.Sprintf("s%d", i), ClassSweep, "", "g", now))
		s.push(mkJob(fmt.Sprintf("b%d", i), ClassBatch, "", "", now))
	}
	counts := map[Class]int{}
	for n := 0; n < 11; n++ { // exactly one credit round
		j := s.pop()
		counts[j.class]++
	}
	if counts[ClassInteractive] != 8 || counts[ClassSweep] != 2 || counts[ClassBatch] != 1 {
		t.Fatalf("one credit round served %v, want interactive:8 sweep:2 batch:1", counts)
	}
	// A second round repeats the ratio — credits refill.
	for n := 0; n < 11; n++ {
		counts[s.pop().class]++
	}
	if counts[ClassInteractive] != 16 || counts[ClassSweep] != 4 || counts[ClassBatch] != 2 {
		t.Fatalf("two credit rounds served %v", counts)
	}
}

// TestSchedGroupRoundRobinFIFOWithin: lanes of one class drain round-robin
// one job per turn, and each lane keeps submission order.
func TestSchedGroupRoundRobinFIFOWithin(t *testing.T) {
	var s sched
	now := time.Now()
	for i := 0; i < 3; i++ {
		s.push(mkJob(fmt.Sprintf("a%d", i), ClassSweep, "", "A", now))
	}
	for i := 0; i < 3; i++ {
		s.push(mkJob(fmt.Sprintf("b%d", i), ClassSweep, "", "B", now))
	}
	var order []string
	for j := s.pop(); j != nil; j = s.pop() {
		order = append(order, j.id)
	}
	want := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}
}

// TestSchedSubmitterLanes: the same group name under two submitters is two
// lanes — one tenant's backlog does not serialize another's.
func TestSchedSubmitterLanes(t *testing.T) {
	var s sched
	now := time.Now()
	for i := 0; i < 2; i++ {
		s.push(mkJob(fmt.Sprintf("x%d", i), ClassInteractive, "alice", "", now))
	}
	s.push(mkJob("y0", ClassInteractive, "bob", "", now))
	var order []string
	for j := s.pop(); j != nil; j = s.pop() {
		order = append(order, j.id)
	}
	if fmt.Sprint(order) != fmt.Sprint([]string{"x0", "y0", "x1"}) {
		t.Fatalf("pop order %v, want bob interleaved between alice's jobs", order)
	}
}

// TestSchedRemove: removing queued jobs (the cancellation path) keeps
// depths, ring membership and oldest-age bookkeeping consistent.
func TestSchedRemove(t *testing.T) {
	var s sched
	t0 := time.Now()
	j1 := mkJob("1", ClassSweep, "", "A", t0)
	j2 := mkJob("2", ClassSweep, "", "A", t0.Add(time.Second))
	j3 := mkJob("3", ClassSweep, "", "B", t0.Add(2*time.Second))
	s.push(j1)
	s.push(j2)
	s.push(j3)
	if !s.remove(j1) {
		t.Fatal("remove(j1) = false")
	}
	if s.remove(j1) {
		t.Fatal("second remove(j1) = true")
	}
	if got := s.classDepth(ClassSweep); got != 2 {
		t.Fatalf("classDepth = %d, want 2", got)
	}
	if oldest, ok := s.oldestCreated(ClassSweep); !ok || !oldest.Equal(j2.created) {
		t.Fatalf("oldestCreated = %v/%v, want j2's time", oldest, ok)
	}
	if !s.remove(j2) || !s.remove(j3) {
		t.Fatal("removing remaining jobs failed")
	}
	if s.queued != 0 || s.pop() != nil {
		t.Fatalf("scheduler not empty after removals: queued=%d", s.queued)
	}
	if _, ok := s.oldestCreated(ClassSweep); ok {
		t.Fatal("oldestCreated reports a job in an empty class")
	}
}

// TestChangedGroupIsolation is the thundering-herd regression test: a
// status bump in group A must close A's channel and must NOT wake a waiter
// holding group B's channel.
func TestChangedGroupIsolation(t *testing.T) {
	q := New(8, 1)
	defer q.Drain(context.Background())
	chB := q.ChangedGroup("B")
	chA := q.ChangedGroup("A")

	id, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{Group: "A", Class: ClassSweep})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, id)
	select {
	case <-chA:
	case <-time.After(5 * time.Second):
		t.Fatal("group A channel never closed after its job's transitions")
	}
	select {
	case <-chB:
		t.Fatal("group B waiter woken by a transition in group A")
	default:
	}

	// Ungrouped transitions touch no group channel either.
	chB = q.ChangedGroup("B")
	id, err = q.SubmitWith(func(context.Context) (any, error) { return nil, nil }, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, id)
	select {
	case <-chB:
		t.Fatal("group B waiter woken by an ungrouped job")
	default:
	}
}

// TestBatchSurvivesInteractiveFlood is the starvation regression test: one
// low-priority batch job queued behind a continuously replenished stream of
// interactive jobs still completes promptly — the credit rounds guarantee
// the batch class a share of every 11 dispatches.
func TestBatchSurvivesInteractiveFlood(t *testing.T) {
	q := New(256, 1)
	gate := make(chan struct{})
	if _, err := q.SubmitWith(func(context.Context) (any, error) { <-gate; return nil, nil }, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	batchID, err := q.SubmitWith(func(context.Context) (any, error) { return "batch", nil },
		SubmitOptions{Class: ClassBatch})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load a big interactive backlog and keep topping it up while the
	// batch job waits.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var interactiveDone atomic.Int64
	feed := func() (string, error) {
		return q.SubmitWith(func(context.Context) (any, error) {
			interactiveDone.Add(1)
			return nil, nil
		}, SubmitOptions{})
	}
	for i := 0; i < 64; i++ {
		if _, err := feed(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				feed() // ErrFull is fine: the backlog is already deep
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	close(gate)
	s := waitTerminal(t, q, batchID)
	close(stop)
	wg.Wait()
	if s.Status != StatusDone || s.Result != "batch" {
		t.Fatalf("batch job %+v, want done under interactive flood", s)
	}
	if interactiveDone.Load() == 0 {
		t.Fatal("test never actually ran interactive jobs alongside the batch job")
	}
	q.Drain(context.Background())
}

// TestQueueClassStats: per-class depth, queue-wait histogram and the
// starvation gauge reflect the scheduler's state.
func TestQueueClassStats(t *testing.T) {
	q := New(16, 1)
	defer q.Drain(context.Background())
	gate := make(chan struct{})
	first, _ := q.SubmitWith(func(context.Context) (any, error) { <-gate; return nil, nil }, SubmitOptions{})
	for i := 0; ; i++ {
		if s, _ := q.Get(first); s.Status == StatusRunning {
			break
		}
		if i > 5000 {
			t.Fatal("gate job never started")
		}
		time.Sleep(time.Millisecond)
	}
	id, err := q.SubmitWith(func(context.Context) (any, error) { return nil, nil },
		SubmitOptions{Class: ClassBatch, Submitter: "bench"})
	if err != nil {
		t.Fatal(err)
	}
	if d := q.ClassDepth(ClassBatch); d != 1 {
		t.Fatalf("ClassDepth(batch) = %d, want 1", d)
	}
	if _, ok := q.OldestQueuedAge(ClassBatch); !ok {
		t.Fatal("OldestQueuedAge(batch) reports empty with a job queued")
	}
	if _, ok := q.OldestQueuedAge(ClassSweep); ok {
		t.Fatal("OldestQueuedAge(sweep) reports a job in an empty class")
	}
	close(gate)
	waitTerminal(t, q, id)
	if d := q.ClassDepth(ClassBatch); d != 0 {
		t.Fatalf("ClassDepth(batch) after drain = %d, want 0", d)
	}
	if h := q.QueueWait(ClassBatch); h.N != 1 {
		t.Fatalf("QueueWait(batch).N = %d, want 1", h.N)
	}
	snap, _ := q.Get(id)
	if snap.Class != ClassBatch {
		t.Fatalf("snapshot class %v, want batch", snap.Class)
	}
}
