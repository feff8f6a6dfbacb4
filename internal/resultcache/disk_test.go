package resultcache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"eccparity/internal/blob"
)

// TestCorruptDiskEntryRecomputes is the satellite regression: a cached file
// that rots on disk — here a single flipped bit in the payload — must not
// be served. The read detects the checksum mismatch, deletes the file, and
// the entry recomputes as a miss.
func TestCorruptDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"seed": 7})
	orig := []byte(`{"experiment":"fig8","text":"rows"}`)

	c1, err := New(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil }); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit on disk, past the "eccbl1 <hex>\n" frame header.
	path := blobPath(dir, key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh instance (no memory copy) must recompute, not serve rot.
	c2, err := New(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	v, hit, err := c2.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		recomputed = true
		return orig, nil
	})
	if err != nil || hit || !recomputed {
		t.Fatalf("corrupt entry: hit=%v recomputed=%v err=%v, want miss+recompute", hit, recomputed, err)
	}
	if !bytes.Equal(v, orig) {
		t.Fatalf("recomputed bytes %q != original %q", v, orig)
	}
	if s := c2.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 corrupt / 1 miss", s)
	}
	// The rotten file was replaced by the recomputed entry's valid frame.
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("recomputed entry not re-persisted: %v", err)
	}
	if payload, ok := blob.DecodeFrame(b2); !ok || !bytes.Equal(payload, orig) {
		t.Fatalf("re-persisted frame invalid: ok=%v payload=%q", ok, payload)
	}
}

// TestTruncatedDiskEntryRecomputes covers the crash-torn-write shape of
// corruption: a file cut mid-payload fails the frame check the same way.
func TestTruncatedDiskEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"seed": 8})
	c1, _ := New(dir, 0, nil)
	orig := []byte("0123456789abcdef0123456789abcdef")
	c1.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return orig, nil })

	path := blobPath(dir, key)
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-10], 0o644)

	c2, _ := New(dir, 0, nil)
	if _, ok := c2.Peek(key); ok {
		t.Fatal("Peek served a truncated entry")
	}
	if s := c2.Stats(); s.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", s.Corrupt)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("truncated file not deleted: %v", err)
	}
}

// TestDiskEvictionLRU: with a byte budget, the least-recently-used entries
// leave disk first, and a read refreshes an entry's recency.
func TestDiskEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	frameSize := int64(len(blob.EncodeFrame(payload)))

	// Budget for exactly three entries.
	c, err := New(dir, 3*frameSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	for i := range keys {
		keys[i], _ = Key(map[string]int{"i": i})
	}
	for _, k := range keys[:3] {
		if _, _, err := c.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch keys[0] and keys[2] via a fresh instance so recency comes from
	// disk reads (startup mtime order can tie), then insert a fourth entry:
	// keys[1] is now unambiguously the LRU and must go.
	c2, err := New(dir, 3*frameSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := c2.Peek(k); !ok {
			t.Fatal("warm entry missing")
		}
	}
	if _, _, err := c2.GetOrCompute(context.Background(), keys[3], func(context.Context) ([]byte, error) { return payload, nil }); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(blobPath(dir, keys[1])); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("LRU entry %s survived eviction: %v", keys[1][:8], err)
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, err := os.Stat(blobPath(dir, k)); err != nil {
			t.Errorf("entry %s evicted out of order: %v", k[:8], err)
		}
	}
	s := c2.Stats()
	if s.Evicted != 1 || s.DiskEntries != 3 || s.DiskBytes != 3*frameSize {
		t.Errorf("stats = %+v, want 1 evicted / 3 entries / %d bytes", s, 3*frameSize)
	}
}

// TestStartupTrimsOversizedCorpus: an existing corpus larger than the
// budget is trimmed (oldest first) when the cache opens.
func TestStartupTrimsOversizedCorpus(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 50)
	frameSize := int64(len(blob.EncodeFrame(payload)))
	c1, _ := New(dir, 0, nil)
	for i := 0; i < 5; i++ {
		k, _ := Key(map[string]int{"i": i})
		c1.GetOrCompute(context.Background(), k, func(context.Context) ([]byte, error) { return payload, nil })
	}

	c2, err := New(dir, 2*frameSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.DiskEntries != 2 || s.Evicted != 3 {
		t.Errorf("stats after trim = %+v, want 2 entries / 3 evicted", s)
	}
}

// TestCanceledComputeCachesNothing: a computation that returns its
// context's error must leave no trace — no memory entry, no disk file —
// so the next caller recomputes cleanly.
func TestCanceledComputeCachesNothing(t *testing.T) {
	dir := t.TempDir()
	c, _ := New(dir, 0, nil)
	key, _ := Key(map[string]int{"seed": 9})

	ctx, cancel := context.WithCancel(context.Background())
	_, _, err := c.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		cancel()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := c.Peek(key); ok {
		t.Fatal("canceled run left a memory entry")
	}
	if _, err := os.Stat(blobPath(dir, key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("canceled run left a disk file: %v", err)
	}

	// Resubmission recomputes and caches normally.
	want := []byte("fresh")
	v, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("resubmit: v=%q hit=%v err=%v", v, hit, err)
	}
}

// TestWaiterCancelLeavesFlightRunning: a coalesced waiter that gives up
// gets ctx.Err() immediately, while the leader's computation completes and
// caches for everyone else.
func TestWaiterCancelLeavesFlightRunning(t *testing.T) {
	c, _ := New("", 0, nil)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.GetOrCompute(context.Background(), "k", func(context.Context) ([]byte, error) {
			<-gate
			return []byte("v"), nil
		})
	}()
	// Wait until the leader's flight is registered.
	for {
		c.mu.Lock()
		_, inflight := c.inflight["k"]
		c.mu.Unlock()
		if inflight {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, "k", func(context.Context) ([]byte, error) {
		t.Error("waiter ran compute despite in-flight leader")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("leader result lost: ok=%v v=%q", ok, v)
	}
}

// TestOldFormatEntriesRecompute: an unframed (raw payload) file under the
// key's path fails the frame check and recomputes rather than being served
// with unverifiable integrity.
func TestOldFormatEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"legacy": 1})
	plant(t, dir, key, []byte(`{"old":"format"}`))
	c, _ := New(dir, 0, nil)
	want := []byte(`{"new":"format"}`)
	v, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) { return want, nil })
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("legacy entry: v=%q hit=%v err=%v, want recompute", v, hit, err)
	}
}

// TestNewSweepsTmpOrphans: a crash between writing an entry's tmp file and
// renaming it into place leaves "<key>.tmp*" behind; opening the cache on
// that directory removes it.
func TestNewSweepsTmpOrphans(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(map[string]int{"orphan": 1})
	orphan := filepath.Join(dir, key+".tmp123")
	if err := os.WriteFile(orphan, []byte("half a frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp orphan survived New: %v", err)
	}
}
