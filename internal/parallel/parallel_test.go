package parallel

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersClamp(t *testing.T) {
	if w := Workers(0, 10); w < 1 {
		t.Fatalf("default workers %d", w)
	}
	if w := Workers(64, 3); w != 3 {
		t.Fatalf("workers not clamped to task count: %d", w)
	}
	if w := Workers(2, 10); w != 2 {
		t.Fatalf("explicit workers changed: %d", w)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "trials", 3)
	p.Step()
	p.Step()
	p.Step()
	out := buf.String()
	if !strings.Contains(out, "trials 3/3") {
		t.Fatalf("missing final tick: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final tick must end the line: %q", out)
	}
	var nilP *Progress
	nilP.Step() // must not panic
	if NewProgress(nil, "x", 5) != nil || NewProgress(&buf, "x", 0) != nil {
		t.Fatal("degenerate progress must be the nil no-op")
	}
}

// TestYieldHook pins WithYield: Yield calls the hook once per call, tasks
// of a Shared set joined under the context inherit it (unlike the boundary
// hook, since an engine run inside a task is what yields), and a context
// without one yields through runtime.Gosched.
func TestYieldHook(t *testing.T) {
	Yield(context.Background())
	var yields atomic.Int64
	ctx := WithYield(context.Background(), func() { yields.Add(1) })
	Yield(ctx)
	if _, err := NewShared(6, func(ctx context.Context, i int) (int, error) {
		Yield(ctx)
		return i, nil
	}).Join(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if n := yields.Load(); n != 7 {
		t.Fatalf("hook ran %d times for 7 yields", n)
	}
}
