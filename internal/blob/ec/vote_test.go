package ec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"eccparity/internal/blob"
)

// memRoot is an in-memory shard root.
type memRoot map[string][]byte

func (r memRoot) Put(_ context.Context, key string, b []byte) error {
	r[key] = bytes.Clone(b)
	return nil
}

func (r memRoot) Get(_ context.Context, key string) ([]byte, error) {
	b, ok := r[key]
	if !ok {
		return nil, blob.ErrNotFound
	}
	return bytes.Clone(b), nil
}

func (r memRoot) Delete(_ context.Context, key string) error {
	delete(r, key)
	return nil
}

func (r memRoot) List(context.Context) ([]string, error) {
	var keys []string
	for k := range r {
		keys = append(keys, k)
	}
	return keys, nil
}

// What one root holds for the key in a vote case.
const (
	voteGood    = iota // shard of stripe A, the payload first written
	voteMissing        // nothing
	voteCorrupt        // bytes with no readable header
	voteOther          // shard of stripe B: same geometry, other payload
	voteForeign        // stripe A's shard under another geometry (k+1)
	voteStates
)

// stripeShards writes payload through a (k, m) backend over fresh memory
// roots and returns each root's stored shard.
func stripeShards(t *testing.T, k, m int, key string, payload []byte) [][]byte {
	t.Helper()
	roots := make([]blob.Backend, k+m)
	for i := range roots {
		roots[i] = memRoot{}
	}
	b, err := New(k, m, roots)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(context.Background(), key, payload); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, k+m)
	for i, r := range roots {
		out[i] = r.(memRoot)[key]
	}
	return out
}

// TestECVoteMatchesBruteForce writes every assignment of the five shard
// states over the roots of small geometries, k ≤ m included, and checks
// Get against a brute-force count: Get serves exactly when stripe A or B
// has at least k shards, and then serves the larger (a tie goes to the
// stripe holding the lowest-numbered root); otherwise it is ErrNotFound
// when no root holds anything and ErrCorrupt, with the remnant deleted,
// when one does.
func TestECVoteMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	key := testKey("vote")
	payloadA := []byte("stripe A: the payload first written")
	payloadB := []byte("stripe B")
	for _, g := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 1}, {2, 3}} {
		k, m := g[0], g[1]
		n := k + m
		shardsA := stripeShards(t, k, m, key, payloadA)
		shardsB := stripeShards(t, k, m, key, payloadB)
		foreign := make([][]byte, n)
		for i := range foreign {
			h, body, _ := decodeShard(shardsA[i])
			foreign[i] = encodeShard(k+1, m, i, h.plen, h.sum, body)
		}

		cases := 1
		for range n {
			cases *= voteStates
		}
		states := make([]int, n)
		for c := range cases {
			for i, x := 0, c; i < n; i, x = i+1, x/voteStates {
				states[i] = x % voteStates
			}
			name := fmt.Sprintf("k%d_m%d_%v", k, m, states)

			roots := make([]blob.Backend, n)
			countA, countB, firstA, firstB, held := 0, 0, n, n, false
			for i, s := range states {
				r := memRoot{}
				switch s {
				case voteGood:
					r[key] = shardsA[i]
					countA++
					firstA = min(firstA, i)
				case voteCorrupt:
					r[key] = []byte("junk")
				case voteOther:
					r[key] = shardsB[i]
					countB++
					firstB = min(firstB, i)
				case voteForeign:
					r[key] = foreign[i]
				}
				held = held || s != voteMissing
				roots[i] = r
			}
			b, err := New(k, m, roots)
			if err != nil {
				t.Fatal(err)
			}

			var want []byte
			switch {
			case countA >= k && (countA > countB || countA == countB && firstA < firstB):
				want = payloadA
			case countB >= k:
				want = payloadB
			}
			got, err := b.Get(ctx, key)
			switch {
			case want != nil:
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: Get = %q, %v; want %q", name, got, err, want)
				}
				// The degraded read repaired the stripe: it reads the same.
				if again, err := b.Get(ctx, key); err != nil || !bytes.Equal(again, want) {
					t.Fatalf("%s: Get after repair = %q, %v; want %q", name, again, err, want)
				}
			case !held:
				if !errors.Is(err, blob.ErrNotFound) {
					t.Fatalf("%s: Get = %q, %v; want ErrNotFound", name, got, err)
				}
			default:
				if !errors.Is(err, blob.ErrCorrupt) {
					t.Fatalf("%s: Get = %q, %v; want ErrCorrupt", name, got, err)
				}
				if _, err := b.Get(ctx, key); !errors.Is(err, blob.ErrNotFound) {
					t.Fatalf("%s: Get after ErrCorrupt = %v; want ErrNotFound", name, err)
				}
			}
		}
	}
}
