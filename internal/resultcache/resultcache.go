// Package resultcache is a content-addressed store for experiment results.
// Because every experiment in this repo is deterministic in its config
// (seed included, worker count excluded — see internal/sim/report), the
// canonical SHA-256 of the config fully identifies the result bytes: the
// cache never needs invalidation, a hit is byte-identical to the original
// run by construction, and concurrent identical requests can share one
// execution (singleflight).
//
// Layout: a bounded in-memory tier — least-recently-used entries beyond
// memBudget (8 MiB of payload) are dropped — in front of at most two
// blob.Backends: an optional local one (a blob.FS on the daemon's cache
// directory, so a restart keeps its corpus) and an optional shared one
// (the fleet-wide store of a multi-node deployment). A read walks memory,
// then local, then shared; a hit in a later tier fills the earlier ones. A
// computed result is written to the local tier synchronously and published
// to the shared tier write-behind, so the compute path never blocks on a
// network mount. An entry dropped from memory is still served from a blob
// tier when one holds it; a memory-only cache forgets it, and recomputing
// it gives the same bytes.
//
// Both blob tiers store checksummed frames (see blob.EncodeFrame): a
// truncated or bit-flipped entry is detected on read, deleted by the
// backend, and treated as a miss — the result is recomputed, never served
// corrupted, and a shared-tier corpse never poisons other replicas. The
// local tier is bounded: when a byte budget is set, least-recently-used
// entries are evicted to stay under it. Singleflight collapses concurrent
// identical requests on this replica whichever tier ends up serving them.
package resultcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"eccparity/internal/blob"
)

// Key returns the canonical content address of a config value: the SHA-256
// hex of its encoding/json serialization. Struct fields marshal in
// declaration order and map keys sort, so the encoding — and therefore the
// address — is deterministic. Callers must hash a fully normalized config
// (defaults filled in) so that equivalent requests collapse to one key.
func Key(config any) (string, error) {
	b, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("resultcache: marshal config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// memBudget bounds the payload bytes of the memory tier: about eight
// hundred ~10 KB figure documents, so a full sweep at the daemon's default
// 256-point cap (about 3 MB) always fits. Peak RSS runs at about twice the
// live heap, so every resident MiB costs about two.
const memBudget = 8 << 20

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits: served from memory or a blob tier without computing.
	Hits uint64
	// Misses: the value had to be computed.
	Misses uint64
	// Coalesced: callers that waited on another caller's in-flight
	// computation of the same key instead of recomputing (singleflight).
	Coalesced uint64
	// Evicted: local-tier entries removed to stay under the byte budget.
	Evicted uint64
	// Corrupt: local-tier entries that failed their checksum frame; the
	// backend deleted them (each one recomputes as a miss).
	Corrupt uint64
	// SharedHits: lookups served by the shared blob tier (each one also
	// counts in Hits and fills the local tiers).
	SharedHits uint64
	// SharedPublished: results successfully published to the shared tier.
	SharedPublished uint64
	// SharedCorrupt: shared blobs that failed their checksum frame; the
	// backend deleted them and the result was recomputed locally.
	SharedCorrupt uint64
	// SharedErrors: shared-tier reads or publishes that failed for
	// transport/IO reasons (the tier was treated as unavailable).
	SharedErrors uint64
	// SharedRepaired: shards of the erasure-coded shared tier rewritten
	// with reconstructed bytes after reads served through missing or
	// corrupt shards (0 unless the backend reports repair stats — see
	// blob.RepairStatter and internal/blob/ec).
	SharedRepaired uint64
	// ShardErrors: per-shard failures inside the erasure-coded shared tier
	// that the stripe absorbed without the operation failing (0 unless the
	// backend reports repair stats).
	ShardErrors uint64
	// Entries / MemBytes describe the memory tier: results held and their
	// payload bytes (at most memBudget).
	Entries  int
	MemBytes int64
	// DiskEntries / DiskBytes describe the local tier: entries and their
	// framed bytes (0 when disabled).
	DiskEntries int
	DiskBytes   int64
}

// flight is one in-progress computation other callers can wait on. val and
// err are written before done is closed, which orders them for waiters.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// diskEntry is one local-tier LRU index record; list front = most
// recently used.
type diskEntry struct {
	key  string
	size int64
}

// memEntry is one memory-tier record, held at el in the recency list
// (front = most recently used).
type memEntry struct {
	key string
	val []byte
	el  *list.Element
}

// Cache is safe for concurrent use.
type Cache struct {
	// local is the optional budgeted blob tier on the cache directory and
	// shared the optional fleet-wide one behind it; nil disables a tier.
	local, shared blob.Backend
	maxBytes      int64 // local-tier byte budget; 0 = unbounded

	// pubWG tracks in-flight write-behind publishes to the shared tier;
	// pubSem bounds how many run at once so a slow mount cannot pile up
	// goroutines.
	pubWG  sync.WaitGroup
	pubSem chan struct{}

	mu       sync.Mutex
	inflight map[string]*flight

	// Memory LRU, guarded by mu: mem maps key → entry, memLRU orders the
	// entries by recency, and memBytes is the payload sum of all of them.
	mem      map[string]*memEntry
	memLRU   *list.List
	memBytes int64

	// Local-tier LRU index, guarded by mu: index maps key → element whose
	// Value is *diskEntry; bytes is the framed size sum of everything
	// indexed.
	lru   *list.List
	index map[string]*list.Element
	bytes int64

	hits, misses, coalesced, evicted, corrupt          atomic.Uint64
	sharedHits, sharedPub, sharedCorrupt, sharedErrors atomic.Uint64
}

// New creates a cache. A nonempty dir opens a blob.FS there (created if
// missing) as the local tier; dir == "" keeps results in memory only.
// maxDiskBytes bounds the local tier: when a write would push it past the
// budget, least-recently-used entries are evicted first (0 = unbounded).
// The existing corpus is indexed at startup, oldest-first by mtime, and
// trimmed to the budget immediately. shared, when non-nil, is the tier
// behind the local ones: reads fall through to it, its hits fill the local
// tiers, and computed results are published to it write-behind.
func New(dir string, maxDiskBytes int64, shared blob.Backend) (*Cache, error) {
	c := &Cache{
		shared: shared, maxBytes: maxDiskBytes,
		mem: map[string]*memEntry{}, memLRU: list.New(), inflight: map[string]*flight{},
		lru: list.New(), index: map[string]*list.Element{},
		pubSem: make(chan struct{}, 4),
	}
	if dir == "" {
		return c, nil
	}
	local, err := blob.NewFS(dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	entries, err := local.Entries(context.Background())
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	// Oldest first: each PushFront leaves the newest at the front, so a
	// restarted daemon evicts its stalest results first.
	sort.Slice(entries, func(i, j int) bool { return entries[i].ModTime.Before(entries[j].ModTime) })
	for _, e := range entries {
		c.index[e.Key] = c.lru.PushFront(&diskEntry{key: e.Key, size: e.Size})
		c.bytes += e.Size
	}
	c.local = local
	c.mu.Lock()
	c.evictLocked()
	c.mu.Unlock()
	return c, nil
}

// Get returns the cached bytes for key, consulting memory then the blob
// tiers, and counts a hit when found. Missing keys are not counted as
// misses (only a computation is): use GetOrCompute for the read-through
// path.
func (c *Cache) Get(key string) ([]byte, bool) {
	if v, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return v, true
	}
	return nil, false
}

// Peek is Get without touching the hit counter — for serving /v1/results
// fetches, which would otherwise inflate the hit ratio.
func (c *Cache) Peek(key string) ([]byte, bool) {
	return c.lookup(key)
}

func (c *Cache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	if v, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		return clone(v), true
	}
	c.mu.Unlock()
	b, ok := c.readTiers(key)
	if !ok {
		return nil, false
	}
	return clone(b), true
}

// memGetLocked returns key's bytes from the memory tier and marks the entry
// most recently used (mu held).
func (c *Cache) memGetLocked(key string) ([]byte, bool) {
	e, ok := c.mem[key]
	if !ok {
		return nil, false
	}
	c.memLRU.MoveToFront(e.el)
	return e.val, true
}

// memPutLocked stores v as the most recently used memory entry, then drops
// least-recently-used entries until the tier fits memBudget (mu held). A
// value larger than the whole budget is not kept in memory.
func (c *Cache) memPutLocked(key string, v []byte) {
	if e, ok := c.mem[key]; ok {
		c.memBytes -= int64(len(e.val))
		c.memLRU.Remove(e.el)
		delete(c.mem, key)
	}
	if len(v) > memBudget {
		return
	}
	e := &memEntry{key: key, val: v}
	e.el = c.memLRU.PushFront(e)
	c.mem[key] = e
	c.memBytes += int64(len(v))
	for c.memBytes > memBudget {
		e := c.memLRU.Remove(c.memLRU.Back()).(*memEntry)
		delete(c.mem, e.key)
		c.memBytes -= int64(len(e.val))
	}
}

// GetOrCompute returns the bytes for key, running compute exactly once per
// key no matter how many callers arrive concurrently: the first caller
// computes, the rest wait and share its result (or its error). hit reports
// whether this caller's bytes were served without running compute itself.
//
// ctx cancels this caller's wait and is the context compute runs under; a
// canceled computation settles with its error, caches nothing in any tier,
// and leaves the key open for the next caller to recompute.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	return c.getOrCompute(ctx, key, compute, true)
}

// GetOrComputeNoWait is GetOrCompute for a caller that must not wait on
// another caller's computation, because that caller may be waiting on it.
// When key is already in flight it runs compute itself, outside the flight;
// the determinism contract makes its bytes the flight's bytes, and they are
// stored like a flight's.
func (c *Cache) GetOrComputeNoWait(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
	return c.getOrCompute(ctx, key, compute, false)
}

func (c *Cache) getOrCompute(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error), wait bool) (val []byte, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if v, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return clone(v), true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		if !wait {
			return c.computeOutsideFlight(ctx, key, compute)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			// This caller gives up; the flight keeps running for the others.
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, false, f.err
		}
		c.coalesced.Add(1)
		return clone(f.val), true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	// Blob tiers outside the lock: a restart's corpus, or a result another
	// replica published, counts as a hit.
	if b, ok := c.readTiers(key); ok {
		c.settle(key, f, b, nil)
		c.hits.Add(1)
		return clone(b), true, nil
	}

	c.misses.Add(1)
	v, cerr := compute(ctx)
	if cerr == nil {
		c.store(key, v)
	}
	c.settle(key, f, v, cerr)
	if cerr != nil {
		return nil, false, cerr
	}
	return clone(v), false, nil
}

// computeOutsideFlight runs compute for a key another caller's flight is
// already computing, and stores the bytes as the flight would.
func (c *Cache) computeOutsideFlight(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) ([]byte, bool, error) {
	c.misses.Add(1)
	v, err := compute(ctx)
	if err != nil {
		return nil, false, err
	}
	c.store(key, v)
	return clone(v), false, nil
}

// settle publishes a flight's outcome: waiters are released and the key is
// open again (for retry on error). A successful value is already in memory.
func (c *Cache) settle(key string, f *flight, v []byte, err error) {
	f.val, f.err = v, err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}

// store lands a freshly computed value in every tier: the local one
// synchronously, the shared one write-behind, then memory.
func (c *Cache) store(key string, v []byte) {
	c.putLocal(key, v)
	c.publishShared(key, v)
	c.mu.Lock()
	c.memPutLocked(key, clone(v))
	c.mu.Unlock()
}

// readTiers walks the blob tiers behind memory — local, then shared — and
// returns the first verified payload, filling the earlier tiers with it. A
// key that is not a content address skips them. A corrupt entry has
// already been deleted by its backend (see blob.ErrCorrupt) and is a miss:
// the caller recomputes, and storing that recompute repairs both tiers
// with good bytes. Shared-tier transport errors degrade to a miss too — a
// flaky mount slows the fleet down to per-replica recomputation, it never
// breaks it.
func (c *Cache) readTiers(key string) ([]byte, bool) {
	if !blob.ValidKey(key) {
		return nil, false
	}
	b, err := c.readLocal(key)
	if err != nil && c.shared != nil {
		b, err = c.shared.Get(context.Background(), key)
		switch {
		case err == nil:
			c.sharedHits.Add(1)
			c.putLocal(key, b)
		case errors.Is(err, blob.ErrCorrupt):
			c.sharedCorrupt.Add(1)
		case !errors.Is(err, blob.ErrNotFound):
			c.sharedErrors.Add(1)
		}
	}
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	c.memPutLocked(key, b)
	c.mu.Unlock()
	return b, true
}

// readLocal reads key from the local tier, touching its LRU record on a
// hit and dropping it when the backend found the entry corrupt.
func (c *Cache) readLocal(key string) ([]byte, error) {
	if c.local == nil {
		return nil, blob.ErrNotFound
	}
	b, err := c.local.Get(context.Background(), key)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		if el, ok := c.index[key]; ok {
			c.lru.MoveToFront(el)
		}
	case errors.Is(err, blob.ErrCorrupt):
		c.corrupt.Add(1)
		c.dropIndexLocked(key)
	}
	return b, err
}

// publishShared queues a write-behind publish of a freshly computed value
// to the shared tier: the compute path returns immediately, a bounded
// number of publisher goroutines push in the background, and FlushShared
// waits for the backlog (the daemon flushes on drain so a clean shutdown
// leaves everything it computed visible to the fleet). Publish failures are
// counted and dropped — the local tiers still serve the value, and any
// replica that misses the shared tier recomputes deterministically.
func (c *Cache) publishShared(key string, v []byte) {
	if c.shared == nil || !blob.ValidKey(key) {
		return
	}
	val := clone(v)
	c.pubWG.Add(1)
	go func() {
		defer c.pubWG.Done()
		c.pubSem <- struct{}{}
		defer func() { <-c.pubSem }()
		if err := c.shared.Put(context.Background(), key, val); err != nil {
			c.sharedErrors.Add(1)
			return
		}
		c.sharedPub.Add(1)
	}()
}

// FlushShared blocks until every queued write-behind publish has settled.
// Call it before shutdown (and in tests) to make the shared tier catch up
// with everything this replica computed.
func (c *Cache) FlushShared() {
	c.pubWG.Wait()
}

// putLocal writes v to the local tier and charges its framed size to the
// LRU budget, evicting least-recently-used entries past it. Best-effort:
// the memory tier still serves the value if the write fails.
func (c *Cache) putLocal(key string, v []byte) {
	if c.local == nil || !blob.ValidKey(key) {
		return
	}
	if err := c.local.Put(context.Background(), key, v); err != nil {
		return
	}
	size := blob.FramedSize(len(v))
	c.mu.Lock()
	c.dropIndexLocked(key) // overwrite: replace any stale size
	c.index[key] = c.lru.PushFront(&diskEntry{key: key, size: size})
	c.bytes += size
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked removes least-recently-used local entries until the tier fits
// the byte budget (mu held). An evicted result is still served while the
// memory tier holds it, and can always be recomputed — determinism makes
// eviction safe.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*diskEntry)
		// Best-effort: a file that survives a failed delete is still a
		// valid entry, and the next startup indexes it again.
		_ = c.local.Delete(context.Background(), e.key)
		c.dropIndexLocked(e.key)
		c.evicted.Add(1)
	}
}

// dropIndexLocked removes key from the LRU index if present (mu held).
func (c *Cache) dropIndexLocked(key string) {
	if el, ok := c.index[key]; ok {
		c.bytes -= el.Value.(*diskEntry).size
		c.lru.Remove(el)
		delete(c.index, key)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, memBytes := len(c.mem), c.memBytes
	diskEntries := c.lru.Len()
	diskBytes := c.bytes
	c.mu.Unlock()
	var repair blob.RepairStats
	if rs, ok := c.shared.(blob.RepairStatter); ok {
		repair = rs.RepairStats()
	}
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Coalesced:       c.coalesced.Load(),
		Evicted:         c.evicted.Load(),
		Corrupt:         c.corrupt.Load(),
		SharedHits:      c.sharedHits.Load(),
		SharedPublished: c.sharedPub.Load(),
		SharedCorrupt:   c.sharedCorrupt.Load(),
		SharedErrors:    c.sharedErrors.Load(),
		SharedRepaired:  repair.Repaired,
		ShardErrors:     repair.ShardErrors,
		Entries:         entries,
		MemBytes:        memBytes,
		DiskEntries:     diskEntries,
		DiskBytes:       diskBytes,
	}
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
