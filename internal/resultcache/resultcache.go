// Package resultcache is a content-addressed store for experiment results.
// Because every experiment in this repo is deterministic in its config
// (seed included, worker count excluded — see internal/sim/report), the
// canonical SHA-256 of the config fully identifies the result bytes: the
// cache never needs invalidation, a hit is byte-identical to the original
// run by construction, and concurrent identical requests can share one
// execution (singleflight).
//
// Layout: a bounded in-memory tier — least-recently-used entries beyond
// memBudget (8 MiB of payload) are dropped — in front of an optional
// on-disk directory of <hash>.json files written atomically, so a daemon
// restart keeps its corpus. An entry dropped from memory is still served
// from disk or the shared tier when they hold it; a memory-only cache
// forgets it, and recomputing it gives the same bytes. Each disk entry is
// framed with a payload checksum ("eccrc1 <sha256hex>\n<payload>") so a
// truncated or bit-flipped file is detected on read, deleted, and treated
// as a miss — the result is recomputed, never served corrupted. The disk
// layer is bounded: when a byte budget is set, least-recently-used entries
// are evicted to stay under it.
//
// Behind the local tiers an optional shared tier (internal/blob) turns the
// cache into the fleet-wide store of a multi-node deployment: reads fall
// through memory → local disk → shared blob, a shared hit is pulled into
// the local tiers (read-through fill), and a freshly computed result is
// published to the shared tier asynchronously (write-behind, so the compute
// path never blocks on a network mount). The shared tier inherits the same
// safety rules as the disk tier: blobs are checksummed frames, a corrupt
// frame is deleted and recomputed locally — never served and never left to
// poison other replicas — and singleflight still collapses concurrent
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
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
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

// validKey guards the on-disk path: keys are exactly 64 hex chars.
var validKey = regexp.MustCompile(`^[0-9a-f]{64}$`)

// memBudget bounds the payload bytes of the memory tier: about eight
// hundred ~10 KB figure documents, so a full sweep at the daemon's default
// 256-point cap (about 3 MB) always fits. Peak RSS runs at about twice the
// live heap, so every resident MiB costs about two.
const memBudget = 8 << 20

// diskMagic opens every disk entry, followed by the hex SHA-256 of the
// payload and a newline. Bumping the version string invalidates the corpus
// wholesale (old entries fail the frame check and recompute).
const diskMagic = "eccrc1 "

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits: served from memory or disk without computing.
	Hits uint64
	// Misses: the value had to be computed.
	Misses uint64
	// Coalesced: callers that waited on another caller's in-flight
	// computation of the same key instead of recomputing (singleflight).
	Coalesced uint64
	// Evicted: disk entries removed to stay under the byte budget.
	Evicted uint64
	// Corrupt: disk entries that failed their checksum frame and were
	// deleted (each one recomputes as a miss).
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
	// DiskEntries / DiskBytes describe the on-disk layer (0 when disabled).
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

// diskEntry is one LRU index record; list front = most recently used.
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
	dir      string // "" = memory only
	maxBytes int64  // 0 = unbounded disk

	// shared is the optional fleet-wide tier behind the local ones; nil
	// keeps the cache purely local. pubWG tracks in-flight write-behind
	// publishes; pubSem bounds how many run at once so a slow mount cannot
	// pile up goroutines.
	shared blob.Backend
	pubWG  sync.WaitGroup
	pubSem chan struct{}

	mu       sync.Mutex
	inflight map[string]*flight

	// Memory LRU, guarded by mu: mem maps key → entry, memLRU orders the
	// entries by recency, and memBytes is the payload sum of all of them.
	mem      map[string]*memEntry
	memLRU   *list.List
	memBytes int64

	// Disk LRU index, guarded by mu: index maps key → element whose Value
	// is *diskEntry; bytes is the framed size sum of everything indexed.
	lru   *list.List
	index map[string]*list.Element
	bytes int64

	hits, misses, coalesced, evicted, corrupt          atomic.Uint64
	sharedHits, sharedPub, sharedCorrupt, sharedErrors atomic.Uint64
}

// Option configures optional cache behavior at construction.
type Option func(*Cache)

// WithShared attaches a shared blob backend as the tier behind the local
// memory and disk layers: reads fall through to it, shared hits fill the
// local tiers, and computed results are published to it write-behind. A nil
// backend is ignored (single-node behavior unchanged).
func WithShared(b blob.Backend) Option {
	return func(c *Cache) {
		if b != nil {
			c.shared = b
		}
	}
}

// New creates a cache. A nonempty dir enables the on-disk layer (created if
// missing); dir == "" keeps results in memory only. maxDiskBytes bounds the
// on-disk layer: when a write would push the directory past the budget,
// least-recently-used entries are evicted first (0 = unbounded). The
// existing corpus is indexed at startup, oldest-first by mtime, and trimmed
// to the budget immediately.
func New(dir string, maxDiskBytes int64, opts ...Option) (*Cache, error) {
	c := &Cache{
		dir: dir, maxBytes: maxDiskBytes,
		mem: map[string]*memEntry{}, memLRU: list.New(), inflight: map[string]*flight{},
		lru: list.New(), index: map[string]*list.Element{},
		pubSem: make(chan struct{}, 4),
	}
	for _, o := range opts {
		o(c)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		if err := c.loadIndex(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.evictLocked()
		c.mu.Unlock()
	}
	return c, nil
}

// loadIndex scans dir for well-formed entry names and rebuilds the LRU in
// mtime order, so a restarted daemon evicts its stalest results first.
func (c *Cache) loadIndex() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	type rec struct {
		key   string
		size  int64
		mtime int64
	}
	recs := []rec{}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !validKey.MatchString(key) || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime < recs[j].mtime })
	for _, r := range recs {
		// Oldest first: each PushFront leaves the newest at the front.
		c.index[r.key] = c.lru.PushFront(&diskEntry{key: r.key, size: r.size})
		c.bytes += r.size
	}
	return nil
}

// Get returns the cached bytes for key, consulting memory then disk, and
// counts a hit when found. Missing keys are not counted as misses (only a
// computation is): use GetOrCompute for the read-through path.
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
	b, ok := c.readDisk(key)
	if !ok {
		b, ok = c.readShared(key)
	}
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.memPutLocked(key, b)
	c.mu.Unlock()
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
// canceled computation settles with its error, caches nothing (memory or
// disk), and leaves the key open for the next caller to recompute.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func(ctx context.Context) ([]byte, error)) (val []byte, hit bool, err error) {
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

	// Disk check outside the lock: a restart's corpus counts as a hit. The
	// shared tier is consulted after local disk (read-through): a result
	// another replica computed is a hit here too, and the fill below makes
	// the next lookup purely local.
	if b, ok := c.readDisk(key); ok {
		c.settle(key, f, b, nil)
		c.hits.Add(1)
		return clone(b), true, nil
	}
	if b, ok := c.readShared(key); ok {
		c.settle(key, f, b, nil)
		c.hits.Add(1)
		return clone(b), true, nil
	}

	c.misses.Add(1)
	v, cerr := compute(ctx)
	if cerr == nil {
		c.persist(key, v)
		c.publishShared(key, v)
	}
	c.settle(key, f, v, cerr)
	if cerr != nil {
		return nil, false, cerr
	}
	return clone(v), false, nil
}

// settle publishes a flight's outcome: successful values land in memory,
// waiters are released, and the key is open for retry on error.
func (c *Cache) settle(key string, f *flight, v []byte, err error) {
	f.val, f.err = v, err
	c.mu.Lock()
	if err == nil {
		c.memPutLocked(key, clone(v))
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}

// readDisk reads and verifies one disk entry. A file that fails the frame
// check — wrong magic, bad hex, checksum mismatch from truncation or bit
// rot — is deleted and reported as a miss so the caller recomputes. A valid
// read touches the entry in the LRU.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	if c.dir == "" || !validKey.MatchString(key) {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	payload, ok := decodeFrame(b)
	if !ok {
		c.corrupt.Add(1)
		os.Remove(c.path(key))
		c.mu.Lock()
		c.dropIndexLocked(key)
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	return payload, true
}

// readShared reads one entry from the shared blob tier and, on a hit,
// fills the local disk tier so the next lookup stays off the shared mount.
// A corrupt blob has already been deleted by the backend (see
// blob.ErrCorrupt) and is a miss: the caller recomputes locally, and the
// write-behind publish of that recompute repairs the shared tier with good
// bytes. Transport errors degrade to a miss too — a flaky mount slows the
// fleet down to per-replica recomputation, it never breaks it.
func (c *Cache) readShared(key string) ([]byte, bool) {
	if c.shared == nil || !validKey.MatchString(key) {
		return nil, false
	}
	b, err := c.shared.Get(context.Background(), key)
	switch {
	case err == nil:
		c.sharedHits.Add(1)
		c.persist(key, b)
		return b, true
	case errors.Is(err, blob.ErrCorrupt):
		c.sharedCorrupt.Add(1)
	case errors.Is(err, blob.ErrNotFound):
		// plain miss
	default:
		c.sharedErrors.Add(1)
	}
	return nil, false
}

// publishShared queues a write-behind publish of a freshly computed value
// to the shared tier: the compute path returns immediately, a bounded
// number of publisher goroutines push in the background, and FlushShared
// waits for the backlog (the daemon flushes on drain so a clean shutdown
// leaves everything it computed visible to the fleet). Publish failures are
// counted and dropped — the local tiers still serve the value, and any
// replica that misses the shared tier recomputes deterministically.
func (c *Cache) publishShared(key string, v []byte) {
	if c.shared == nil || !validKey.MatchString(key) {
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

// persist writes the framed value to disk atomically (tmp + rename) so a
// crashed write can never surface as a truncated result, then evicts LRU
// entries past the byte budget. Best-effort: the in-memory layer still
// serves the value if the disk write fails.
func (c *Cache) persist(key string, v []byte) {
	if c.dir == "" || !validKey.MatchString(key) {
		return
	}
	framed := encodeFrame(v)
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(key)); err != nil {
		os.Remove(name)
		return
	}
	c.mu.Lock()
	c.dropIndexLocked(key) // overwrite: replace any stale size
	c.index[key] = c.lru.PushFront(&diskEntry{key: key, size: int64(len(framed))})
	c.bytes += int64(len(framed))
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked removes least-recently-used disk entries until the layer fits
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
		os.Remove(c.path(e.key))
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

// encodeFrame wraps a payload in the checksummed disk format.
func encodeFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(diskMagic)+64+1+len(payload))
	out = append(out, diskMagic...)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	return append(out, payload...)
}

// decodeFrame verifies the frame and returns the payload, or ok=false for
// anything malformed — wrong magic, short file, checksum mismatch.
func decodeFrame(b []byte) ([]byte, bool) {
	rest, ok := strings.CutPrefix(string(b), diskMagic)
	if !ok || len(rest) < 65 || rest[64] != '\n' {
		return nil, false
	}
	payload := []byte(rest[65:])
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != rest[:64] {
		return nil, false
	}
	return payload, true
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
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
