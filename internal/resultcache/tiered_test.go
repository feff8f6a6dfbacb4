package resultcache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"eccparity/internal/blob"
)

// newShared returns an FS blob backend rooted in a fresh temp dir, plus the
// dir itself so tests can plant corrupt frames directly.
func newShared(t *testing.T) (*blob.FS, string) {
	t.Helper()
	dir := t.TempDir()
	b, err := blob.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b, dir
}

func mustKey(t *testing.T, v any) string {
	t.Helper()
	k, err := Key(v)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// noCompute is a compute func that must never run.
func noCompute(t *testing.T) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		t.Error("compute ran; expected a tier hit")
		return nil, errors.New("unexpected compute")
	}
}

// A result computed through one cache must be served — byte-identical, no
// recompute — by a second cache that shares only the blob tier: the
// cross-replica read path of the cluster.
func TestSharedTierCrossCacheHit(t *testing.T) {
	shared, _ := newShared(t)
	a, err := New(t.TempDir(), 0, shared)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, map[string]string{"experiment": "fig8"})
	want := []byte(`{"experiment":"fig8","rows":[1,2,3]}`)
	if _, hit, err := a.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return want, nil
	}); err != nil || hit {
		t.Fatalf("first compute: hit=%v err=%v", hit, err)
	}
	a.FlushShared()
	if s := a.Stats(); s.SharedPublished != 1 {
		t.Fatalf("SharedPublished = %d, want 1", s.SharedPublished)
	}

	b, err := New(t.TempDir(), 0, shared)
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := b.GetOrCompute(context.Background(), key, noCompute(t))
	if err != nil || !hit {
		t.Fatalf("cross-cache read: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-cache bytes = %q, want %q", got, want)
	}
	s := b.Stats()
	if s.SharedHits != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats after shared hit = %+v", s)
	}
	// Read-through fill: the hit landed in b's local disk tier, so a
	// restarted replica on the same cache dir serves it with no shared
	// backend at all.
	if s.DiskEntries != 1 {
		t.Fatalf("DiskEntries = %d, want 1 (read-through fill)", s.DiskEntries)
	}
}

// Get (the fast submission path) must also fall through to the shared tier.
func TestGetFallsThroughToShared(t *testing.T) {
	shared, _ := newShared(t)
	key := mustKey(t, "get-path")
	want := []byte("payload")
	if err := shared.Put(context.Background(), key, want); err != nil {
		t.Fatal(err)
	}
	c, err := New("", 0, shared)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if s := c.Stats(); s.SharedHits != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// blobPath mirrors blob.FS's fan-out layout so tests can damage files.
func blobPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".blob")
}

// plant writes raw bytes at a key's blob path, creating the fan-out dir.
func plant(t *testing.T, dir, key string, raw []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(blobPath(dir, key)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobPath(dir, key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The corruption contract under tiering: a truncated or garbage blob frame
// is deleted, the result is recomputed locally, and the write-behind
// publish repairs the shared tier with good bytes — corruption never
// propagates and never poisons other replicas.
func TestCorruptSharedBlobRecomputedAndRepaired(t *testing.T) {
	want := []byte(`{"good":"bytes"}`)
	cases := map[string]func(key string) []byte{
		"truncated": func(string) []byte { return blob.EncodeFrame(want)[:30] },
		"garbage":   func(string) []byte { return []byte("complete nonsense") },
		"bitflip": func(string) []byte {
			f := blob.EncodeFrame(want)
			f[len(f)-1] ^= 0x01
			return f
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			shared, sharedDir := newShared(t)
			key := mustKey(t, "corrupt-"+name)
			plant(t, sharedDir, key, damage(key))

			c, err := New(t.TempDir(), 0, shared)
			if err != nil {
				t.Fatal(err)
			}
			computes := 0
			got, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
				computes++
				return want, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit || computes != 1 {
				t.Fatalf("hit=%v computes=%d, want local recompute", hit, computes)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("bytes = %q, want %q", got, want)
			}
			s := c.Stats()
			if s.SharedCorrupt != 1 {
				t.Fatalf("SharedCorrupt = %d, want 1", s.SharedCorrupt)
			}

			// The recompute's publish must repair the shared tier: the blob
			// now decodes cleanly and serves a fresh replica.
			c.FlushShared()
			raw, err := os.ReadFile(blobPath(sharedDir, key))
			if err != nil {
				t.Fatalf("shared blob not republished: %v", err)
			}
			payload, ok := blob.DecodeFrame(raw)
			if !ok || !bytes.Equal(payload, want) {
				t.Fatalf("republished frame bad: ok=%v payload=%q", ok, payload)
			}
			fresh, err := New(t.TempDir(), 0, shared)
			if err != nil {
				t.Fatal(err)
			}
			got2, hit2, err := fresh.GetOrCompute(context.Background(), key, noCompute(t))
			if err != nil || !hit2 || !bytes.Equal(got2, want) {
				t.Fatalf("repaired read: hit=%v err=%v bytes=%q", hit2, err, got2)
			}
		})
	}
}

// A corrupt shared blob observed through plain Get is deleted, reported as
// a miss, and never reaches the local tiers.
func TestCorruptSharedBlobGetIsMiss(t *testing.T) {
	shared, sharedDir := newShared(t)
	key := mustKey(t, "get-corrupt")
	plant(t, sharedDir, key, []byte("junk"))
	c, err := New(t.TempDir(), 0, shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Get served a corrupt shared blob")
	}
	if _, err := os.Stat(blobPath(sharedDir, key)); !os.IsNotExist(err) {
		t.Fatal("corrupt shared blob not deleted")
	}
	if s := c.Stats(); s.SharedCorrupt != 1 || s.Entries != 0 || s.DiskEntries != 0 {
		t.Fatalf("stats = %+v: corruption leaked into local tiers", s)
	}
}

// failingBackend simulates a dead shared mount: every operation errors.
type failingBackend struct{}

func (failingBackend) Put(context.Context, string, []byte) error { return errors.New("mount gone") }
func (failingBackend) Get(context.Context, string) ([]byte, error) {
	return nil, errors.New("mount gone")
}
func (failingBackend) Delete(context.Context, string) error   { return errors.New("mount gone") }
func (failingBackend) List(context.Context) ([]string, error) { return nil, errors.New("mount gone") }

// An unavailable shared tier degrades to local-only operation: computes
// succeed, errors are counted, nothing fails.
func TestSharedTierUnavailableDegrades(t *testing.T) {
	c, err := New("", 0, failingBackend{})
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, "degraded")
	want := []byte("still works")
	got, hit, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return want, nil
	})
	if err != nil || hit || !bytes.Equal(got, want) {
		t.Fatalf("compute under dead mount: hit=%v err=%v bytes=%q", hit, err, got)
	}
	c.FlushShared()
	s := c.Stats()
	if s.SharedErrors < 2 { // one failed read, one failed publish
		t.Fatalf("SharedErrors = %d, want >= 2", s.SharedErrors)
	}
	if s.SharedPublished != 0 {
		t.Fatalf("SharedPublished = %d, want 0", s.SharedPublished)
	}
	// The local tiers still serve it.
	if _, ok := c.Get(key); !ok {
		t.Fatal("local tier lost the value")
	}
}

// Singleflight must hold across tiers: concurrent identical requests on one
// replica produce exactly one compute even when the shared tier is enabled.
func TestSingleflightAcrossTiers(t *testing.T) {
	shared, _ := newShared(t)
	c, err := New("", 0, shared)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, "flight")
	var mu sync.Mutex
	computes := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, err := c.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return []byte("one"), nil
			})
			if err != nil || !bytes.Equal(v, []byte("one")) {
				t.Errorf("GetOrCompute = %q, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	// Let the write-behind publish land before TempDir cleanup removes
	// the shared root under it.
	c.FlushShared()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight across tiers)", computes)
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", s.Misses)
	}
}
