// Package blob defines the pluggable storage backend behind the result
// cache's disk tiers: a flat content-addressed namespace of checksummed
// payloads keyed by 64-hex-char SHA-256 addresses (the same keys
// internal/resultcache uses). The cache's local tier is an FS on the
// daemon's own -cache-dir; its shared tier is anything the whole fleet can
// reach — the filesystem implementation in this package covers an NFS/SMB
// shared mount out of the box and is layout-compatible with an S3-style
// object store (one object per key, atomic visibility, no partial reads).
//
// Every payload is framed ("eccbl1 " + SHA-256 hex + "\n" + payload) so a
// torn write, truncation, or bit rot on the shared medium is detected at
// read time and surfaced as ErrCorrupt rather than served: determinism
// makes every blob recomputable, so the only unforgivable failure is
// silently returning wrong bytes.
package blob

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"regexp"
	"strings"
)

// Errors a Backend reports. Anything else is a transport/IO failure the
// caller should treat as "tier unavailable", not as data state.
var (
	// ErrNotFound: no blob stored under the key.
	ErrNotFound = errors.New("blob: not found")
	// ErrCorrupt: a blob existed but failed its checksum frame; the backend
	// has already deleted it (it is unrecoverable and recomputable).
	ErrCorrupt = errors.New("blob: corrupt frame")
	// ErrBadKey: the key is not a 64-char lowercase hex string.
	ErrBadKey = errors.New("blob: key must be 64 lowercase hex chars")
)

// Backend is a content-addressed blob store shared across replicas. All
// methods are safe for concurrent use by many processes; Put must be atomic
// (a reader sees the whole framed blob or nothing).
type Backend interface {
	// Put stores payload under key, framing it with a checksum. Overwriting
	// an existing key is allowed and must remain atomic (same-key payloads
	// are byte-identical by construction, so last-writer-wins is safe).
	Put(ctx context.Context, key string, payload []byte) error
	// Get returns the payload stored under key, verifying its frame. A
	// missing key returns ErrNotFound; a frame failure returns ErrCorrupt
	// after deleting the damaged blob.
	Get(ctx context.Context, key string) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error.
	Delete(ctx context.Context, key string) error
	// List returns every stored key, in unspecified order.
	List(ctx context.Context) ([]string, error)
}

// RepairStats counts the degraded-mode activity of a backend that can
// serve reads through partial damage (the erasure-coded wrapper in
// internal/blob/ec). Plain single-copy backends don't implement it.
type RepairStats struct {
	// Repaired: shards rewritten with reconstructed bytes after a read
	// served through missing or corrupt shards.
	Repaired uint64
	// ShardErrors: per-shard reads or writes that failed (missing, corrupt,
	// or unreachable shard roots) while the operation as a whole still
	// succeeded or degraded gracefully.
	ShardErrors uint64
}

// RepairStatter is implemented by backends that track RepairStats;
// internal/resultcache surfaces them as SharedRepaired/ShardErrors.
type RepairStatter interface {
	RepairStats() RepairStats
}

// validKey matches the content-address namespace: exactly 64 hex chars.
var validKey = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidKey reports whether key is a well-formed content address.
func ValidKey(key string) bool { return validKey.MatchString(key) }

// frameMagic opens every stored blob; the version byte is part of it, so
// bumping the string orphans (and lazily recomputes) the whole corpus.
const frameMagic = "eccbl1 "

// EncodeFrame wraps payload in the checksummed wire/disk format shared by
// every backend: magic, SHA-256 hex of the payload, newline, payload.
func EncodeFrame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, FramedSize(len(payload)))
	out = append(out, frameMagic...)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	return append(out, payload...)
}

// FramedSize is the stored size of an n-byte payload: the length of its
// EncodeFrame output.
func FramedSize(n int) int64 {
	return int64(len(frameMagic) + 2*sha256.Size + 1 + n)
}

// DecodeFrame verifies a framed blob and returns its payload, or ok=false
// for anything malformed: wrong magic, short file, checksum mismatch.
func DecodeFrame(b []byte) ([]byte, bool) {
	rest, ok := strings.CutPrefix(string(b), frameMagic)
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
