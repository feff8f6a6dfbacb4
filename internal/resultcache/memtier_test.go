package resultcache

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// memKey is the i-th well-formed test key.
func memKey(i int) string { return fmt.Sprintf("%064x", i) }

// mib is a 1 MiB payload tagged with i.
func mib(i int) []byte {
	b := bytes.Repeat([]byte{'.'}, 1<<20)
	copy(b, fmt.Sprint(i))
	return b
}

// fill computes keys [from, to) with 1 MiB payloads, checking the memory
// tier stays within its budget after every put.
func fill(t *testing.T, c *Cache, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, _, err := c.GetOrCompute(context.Background(), memKey(i), func(context.Context) ([]byte, error) {
			return mib(i), nil
		}); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.MemBytes > memBudget {
			t.Fatalf("after %d puts the memory tier holds %d bytes, budget %d", i+1, s.MemBytes, memBudget)
		}
	}
}

// TestMemoryTierBounded: puts past the budget evict least-recently-used
// entries; a memory-only cache then misses an evicted key, and
// recomputing it gives the same bytes.
func TestMemoryTierBounded(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 0, 40)
	if s := c.Stats(); s.MemBytes != memBudget || s.Entries != memBudget>>20 {
		t.Fatalf("Stats = %d entries / %d bytes, want %d / %d", s.Entries, s.MemBytes, memBudget>>20, memBudget)
	}
	if _, ok := c.Peek(memKey(0)); ok {
		t.Fatal("oldest entry still served after eviction from a memory-only cache")
	}
	if _, ok := c.Peek(memKey(39)); !ok {
		t.Fatal("newest entry missing")
	}
	v, hit, err := c.GetOrCompute(context.Background(), memKey(0), func(context.Context) ([]byte, error) {
		return mib(0), nil
	})
	if err != nil || hit || !bytes.Equal(v, mib(0)) {
		t.Fatalf("recompute of evicted entry: hit=%v err=%v same=%v", hit, err, bytes.Equal(v, mib(0)))
	}
}

// TestMemoryTierKeepsRecentlyRead: a read moves an entry to the front, so
// eviction takes the least recently used entry instead — and a fresh entry
// nobody has read yet outlives entries last read before it was added.
func TestMemoryTierKeepsRecentlyRead(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	n := memBudget >> 20
	fill(t, c, 0, n)
	for i := 2; i < n; i++ {
		if _, ok := c.Peek(memKey(i)); !ok {
			t.Fatalf("entry %d missing before the budget was exceeded", i)
		}
	}
	c.Peek(memKey(0))
	fill(t, c, 100, 102)
	for key, want := range map[int]bool{0: true, 1: false, 2: false, 3: true, 100: true, 101: true} {
		if _, ok := c.Peek(memKey(key)); ok != want {
			t.Errorf("entry %d resident = %v, want %v", key, ok, want)
		}
	}
}

// TestMemoryTierEvictedServedFromDisk: an entry evicted from memory is
// still a hit from the disk tier, without recomputing.
func TestMemoryTierEvictedServedFromDisk(t *testing.T) {
	c, err := New(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 0, 40)
	v, hit, err := c.GetOrCompute(context.Background(), memKey(0), noCompute(t))
	if err != nil || !hit || !bytes.Equal(v, mib(0)) {
		t.Fatalf("evicted entry from disk: hit=%v err=%v same=%v", hit, err, bytes.Equal(v, mib(0)))
	}
	if s := c.Stats(); s.MemBytes > memBudget {
		t.Fatalf("disk fill pushed the memory tier to %d bytes", s.MemBytes)
	}
}

// TestMemoryTierSingleflight: with the memory tier full, concurrent
// identical requests still share one computation.
func TestMemoryTierSingleflight(t *testing.T) {
	c, err := New("", 0)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 0, 40)
	var computes atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	vals := make([][]byte, callers)
	var arrived, wg sync.WaitGroup
	arrived.Add(callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived.Done()
			v, _, err := c.GetOrCompute(context.Background(), memKey(1000), func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-gate
				return mib(1000), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	arrived.Wait()
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations for one key, want 1", n)
	}
	for i, v := range vals {
		if !bytes.Equal(v, mib(1000)) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
}
