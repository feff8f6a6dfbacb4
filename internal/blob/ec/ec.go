// Package ec is the erasure-coded shared result tier: a blob.Backend that
// stripes every payload into k data + m parity shards (systematic
// Reed–Solomon over GF(2^8), internal/gf.Striper) and spreads them over
// k+m independent backend roots — shard directories on distinct machines
// or mounts in production. Get reconstructs the payload from any k
// surviving shards, so up to m lost, corrupt, or unreachable roots degrade
// a read to a rebuild instead of a recompute — the paper's ECC-parity
// move, one parity resource amortized across N independent channels,
// applied to the fleet's result store instead of a memory system.
//
// A read that served through damage repairs it: reconstructed shards are
// rewritten to their roots best-effort, so one degraded Get heals the
// stripe for every replica that follows. All shard-level failures and
// repairs are counted and surfaced through blob.RepairStatter.
package ec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"eccparity/internal/blob"
	"eccparity/internal/gf"
)

// shardMagic opens every shard payload, ahead of the space-separated
// geometry (k, m, shard index), the unpadded payload length, and the
// payload's SHA-256 — everything Get needs to regroup a stripe and verify
// the reconstruction end to end. Each shard is additionally framed and
// checksummed by its own root backend, so a torn shard write is detected
// there; the header's hash guards the cross-shard reassembly.
const shardMagic = "eccsh1"

// Backend stripes payloads across len(roots) == k+m blob backends. Safe
// for concurrent use when the roots are (blob.FS is).
type Backend struct {
	k, m    int
	roots   []blob.Backend
	striper *gf.Striper

	repaired    atomic.Uint64
	shardErrors atomic.Uint64
}

// New builds an erasure-coded backend over exactly k+m roots. Root order
// is part of the stripe layout and must match across every replica that
// shares the tier.
func New(k, m int, roots []blob.Backend) (*Backend, error) {
	if k < 1 || m < 1 || k+m > 255 {
		return nil, fmt.Errorf("ec: invalid geometry k=%d m=%d (need k ≥ 1, m ≥ 1, k+m ≤ 255)", k, m)
	}
	if len(roots) != k+m {
		return nil, fmt.Errorf("ec: %d shard roots for a (%d data + %d parity) stripe; need exactly %d", len(roots), k, m, k+m)
	}
	return &Backend{k: k, m: m, roots: roots, striper: gf.NewStriper(k, m)}, nil
}

// OpenFS builds an erasure-coded backend over filesystem roots: one
// blob.FS per directory in dirs (len(dirs) must be k+m). DeriveRoots
// produces the conventional single-base layout.
func OpenFS(k, m int, dirs []string) (*Backend, error) {
	roots := make([]blob.Backend, len(dirs))
	for i, d := range dirs {
		fs, err := blob.NewFS(d)
		if err != nil {
			return nil, fmt.Errorf("ec: shard root %d: %w", i, err)
		}
		roots[i] = fs
	}
	return New(k, m, roots)
}

// DeriveRoots returns the conventional shard-root paths under one base
// directory: <base>/shard-00 … <base>/shard-<n-1>. A deployment with
// genuinely independent mounts passes explicit roots instead.
func DeriveRoots(base string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("shard-%02d", i))
	}
	return dirs
}

// K returns the data shard count.
func (b *Backend) K() int { return b.k }

// M returns the parity shard count.
func (b *Backend) M() int { return b.m }

// RepairStats implements blob.RepairStatter.
func (b *Backend) RepairStats() blob.RepairStats {
	return blob.RepairStats{Repaired: b.repaired.Load(), ShardErrors: b.shardErrors.Load()}
}

// shardLen returns the per-shard byte count for a payload of plen bytes.
func (b *Backend) shardLen(plen int) int {
	return (plen + b.k - 1) / b.k
}

// encodeShard wraps one shard's bytes in the stripe header.
func encodeShard(k, m, idx, plen int, sum string, body []byte) []byte {
	head := fmt.Sprintf("%s %d %d %d %d %s\n", shardMagic, k, m, idx, plen, sum)
	out := make([]byte, 0, len(head)+len(body))
	out = append(out, head...)
	return append(out, body...)
}

// shardHeader is the parsed stripe header of one shard.
type shardHeader struct {
	k, m, idx, plen int
	sum             string
}

// stripeID is the part of the header every shard of one stripe must agree
// on; shards are grouped by it before reconstruction.
func (h shardHeader) stripeID() string {
	return fmt.Sprintf("%d/%d/%d/%s", h.k, h.m, h.plen, h.sum)
}

// decodeShard splits a stored shard into header and body, ok=false for
// anything malformed.
func decodeShard(raw []byte) (shardHeader, []byte, bool) {
	var h shardHeader
	nl := -1
	for i, c := range raw {
		if c == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return h, nil, false
	}
	var magic string
	n, err := fmt.Sscanf(string(raw[:nl]), "%s %d %d %d %d %s", &magic, &h.k, &h.m, &h.idx, &h.plen, &h.sum)
	if err != nil || n != 6 || magic != shardMagic || h.plen < 0 || len(h.sum) != 64 {
		return h, nil, false
	}
	return h, raw[nl+1:], true
}

// Put implements blob.Backend: encode the payload into k+m shards and
// write one to each root. A write that lands at least k shards succeeds —
// the stripe is reconstructable and a later degraded read repairs the
// holes — with the failures counted as shard errors; fewer than k landed
// shards is a failed publish.
func (b *Backend) Put(ctx context.Context, key string, payload []byte) error {
	if !blob.ValidKey(key) {
		return blob.ErrBadKey
	}
	sum := sha256.Sum256(payload)
	sumHex := hex.EncodeToString(sum[:])
	size := b.shardLen(len(payload))
	padded := make([]byte, b.k*size)
	copy(padded, payload)
	shards := make([][]byte, b.k+b.m)
	for i := 0; i < b.k; i++ {
		shards[i] = padded[i*size : (i+1)*size]
	}
	for j := 0; j < b.m; j++ {
		shards[b.k+j] = make([]byte, size)
	}
	if err := b.striper.EncodeShards(shards); err != nil {
		return fmt.Errorf("ec: %w", err)
	}
	written := 0
	var firstErr error
	for i, root := range b.roots {
		if err := root.Put(ctx, key, encodeShard(b.k, b.m, i, len(payload), sumHex, shards[i])); err != nil {
			b.shardErrors.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written++
	}
	if written < b.k {
		return fmt.Errorf("ec: only %d/%d shards written (need %d): %w", written, len(b.roots), b.k, firstErr)
	}
	return nil
}

// shardState classifies one root's fetch outcome during Get.
type shardState int

const (
	shardOK      shardState = iota // fetched and well-formed
	shardMissing                   // root answered ErrNotFound
	shardCorrupt                   // unreadable header, wrong index, or root reported ErrCorrupt
	shardErrored                   // transport/IO failure — the root is unreachable, not empty
)

// Get implements blob.Backend: fetch every root's shard, group the
// well-formed ones by stripe identity, and reconstruct the payload from
// the largest consistent group when it has at least k members — serving
// straight through up to m missing or corrupt shards. Reconstructed reads
// verify the header's payload SHA-256 end to end and then repair the
// damaged roots with the rebuilt shards.
//
// With fewer than k usable shards the error mirrors the single-copy
// contract: any unreachable root makes the whole read a transport error
// (the stripe may still be whole — nothing is deleted); otherwise leftover
// inconsistent shards are deleted and reported as ErrCorrupt, and a fully
// absent stripe is ErrNotFound.
func (b *Backend) Get(ctx context.Context, key string) ([]byte, error) {
	if !blob.ValidKey(key) {
		return nil, blob.ErrBadKey
	}
	n := len(b.roots)
	states := make([]shardState, n)
	headers := make([]shardHeader, n)
	bodies := make([][]byte, n)
	var transportErr error
	for i, root := range b.roots {
		raw, err := root.Get(ctx, key)
		switch {
		case err == nil:
			h, body, ok := decodeShard(raw)
			if !ok || h.idx != i || h.k != b.k || h.m != b.m || len(body) != b.shardLen(h.plen) {
				states[i] = shardCorrupt
				b.shardErrors.Add(1)
				continue
			}
			states[i], headers[i], bodies[i] = shardOK, h, body
		case errors.Is(err, blob.ErrNotFound):
			states[i] = shardMissing
		case errors.Is(err, blob.ErrCorrupt):
			// The root already deleted the damaged shard.
			states[i] = shardCorrupt
			b.shardErrors.Add(1)
		default:
			states[i] = shardErrored
			b.shardErrors.Add(1)
			if transportErr == nil {
				transportErr = err
			}
		}
	}

	// Group consistent shards by stripe identity and take the largest
	// group: shards left over from an older geometry or a different payload
	// generation lose the vote and are treated as corrupt. Groups are
	// visited in root order, so a tie (possible only when k ≤ m) goes to
	// the group holding the lowest-numbered root on every read.
	groups := map[string][]int{}
	var order []string
	for i := range b.roots {
		if states[i] == shardOK {
			id := headers[i].stripeID()
			if groups[id] == nil {
				order = append(order, id)
			}
			groups[id] = append(groups[id], i)
		}
	}
	var best []int
	for _, id := range order {
		if len(groups[id]) > len(best) {
			best = groups[id]
		}
	}

	if len(best) < b.k {
		if transportErr != nil {
			return nil, fmt.Errorf("ec: %w", transportErr)
		}
		sawShards := false
		for i := range b.roots {
			if states[i] != shardMissing {
				sawShards = true
			}
		}
		if !sawShards {
			return nil, blob.ErrNotFound
		}
		// An unreconstructable remnant: delete the stragglers so the next
		// read is a clean miss, mirroring the single-copy corrupt contract.
		for _, root := range b.roots {
			root.Delete(ctx, key)
		}
		return nil, blob.ErrCorrupt
	}

	head := headers[best[0]]
	inGroup := make([]bool, n)
	for _, i := range best {
		inGroup[i] = true
	}
	shards := make([][]byte, n)
	for _, i := range best {
		shards[i] = bodies[i]
	}
	degraded := len(best) < n
	if err := b.striper.ReconstructShards(shards); err != nil {
		return nil, fmt.Errorf("ec: %w", err)
	}
	padded := make([]byte, 0, b.k*b.shardLen(head.plen))
	for i := 0; i < b.k; i++ {
		padded = append(padded, shards[i]...)
	}
	if head.plen > len(padded) {
		return nil, blob.ErrCorrupt
	}
	payload := padded[:head.plen]
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != head.sum {
		// The stripe reassembled into wrong bytes — unrecoverable; delete
		// it so the caller's recompute can republish a clean one.
		for _, root := range b.roots {
			root.Delete(ctx, key)
		}
		return nil, blob.ErrCorrupt
	}

	if degraded {
		b.repair(ctx, key, head, shards, inGroup, states)
	}
	return payload, nil
}

// repair rewrites the shards a degraded Get reconstructed, skipping roots
// whose fetch failed with a transport error (the mount is down; writing
// would fail too). Best-effort: a failed rewrite is counted and left for
// the next degraded read.
func (b *Backend) repair(ctx context.Context, key string, head shardHeader, shards [][]byte, inGroup []bool, states []shardState) {
	for i, root := range b.roots {
		if inGroup[i] || states[i] == shardErrored {
			continue
		}
		if err := root.Put(ctx, key, encodeShard(b.k, b.m, i, head.plen, head.sum, shards[i])); err != nil {
			b.shardErrors.Add(1)
			continue
		}
		b.repaired.Add(1)
	}
}

// Delete implements blob.Backend: remove the key's shard from every root.
// Missing shards are not errors; the first transport failure is returned
// after every root has been tried.
func (b *Backend) Delete(ctx context.Context, key string) error {
	if !blob.ValidKey(key) {
		return blob.ErrBadKey
	}
	var firstErr error
	for _, root := range b.roots {
		if err := root.Delete(ctx, key); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// List implements blob.Backend: every key whose shard count across the
// reachable roots is at least k — i.e. every reconstructable stripe.
// Unreachable roots are skipped (and counted) as long as at least k roots
// answered; fewer and the listing itself fails.
func (b *Backend) List(ctx context.Context) ([]string, error) {
	counts := map[string]int{}
	answered := 0
	var firstErr error
	for _, root := range b.roots {
		keys, err := root.List(ctx)
		if err != nil {
			b.shardErrors.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		answered++
		for _, k := range keys {
			counts[k]++
		}
	}
	if answered < b.k {
		return nil, fmt.Errorf("ec: only %d/%d shard roots listable (need %d): %w", answered, len(b.roots), b.k, firstErr)
	}
	var out []string
	for k, c := range counts {
		if c >= b.k {
			out = append(out, k)
		}
	}
	return out, nil
}
