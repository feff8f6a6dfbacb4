package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a power-of-two-bucketed histogram for latency-style
// distributions: cheap to update on the simulator's hot path, accurate
// enough for percentile reporting. Bucket 0 holds [0, 1) and bucket i ≥ 1
// holds [2^(i-1), 2^i); the last bucket also takes everything above.
type Histogram struct {
	Buckets [40]uint64
	N       uint64
	Sum     float64
	MaxV    float64
}

// Add records one sample (negative samples are clamped to zero).
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	h.N++
	h.Sum += v
	if v > h.MaxV {
		h.MaxV = v
	}
	h.Buckets[bucket(v, len(h.Buckets))]++
}

// frexpSlack is how close Frexp's fraction may come to 1 before bucket
// defers to math.Log2, whose rounding there carries the result up to the
// next integer.
const frexpSlack = 1e-9

// bucket returns the index of v among n buckets: int(math.Log2(v))+1 for
// v ≥ 1, clamped to n-1, and 0 below. v = frac·2^exp with frac in
// [0.5, 1), so the bucket is exp — except when frac is within frexpSlack of
// 1, where Log2 rounds up to exp and the bucket becomes exp+1; there the
// exact formula still decides, so every sample lands where it always has.
func bucket(v float64, n int) int {
	if v < 1 {
		return 0
	}
	frac, i := math.Frexp(v)
	if frac > 1-frexpSlack {
		i = int(math.Log2(v)) + 1
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Mean returns the average sample.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Percentile returns an upper bound of the p-th percentile: the top edge
// of the bucket containing it, never exceeding the observed maximum. p is
// clamped to [0, 100] (a negative p would otherwise convert to a huge
// unsigned rank); an empty histogram reports 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h.N == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.N)))
	if rank == 0 {
		// p = 0: the smallest sample still lives in some bucket.
		rank = 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen >= rank {
			if i == len(h.Buckets)-1 {
				// The overflow bucket has no meaningful upper edge.
				return h.MaxV
			}
			edge := 1.0
			if i > 0 {
				edge = math.Pow(2, float64(i))
			}
			if edge > h.MaxV {
				return h.MaxV
			}
			return edge
		}
	}
	return h.MaxV
}

// String renders a compact summary.
func (h *Histogram) String() string {
	if h.N == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50≤%.0f p99≤%.0f max=%.0f",
		h.N, h.Mean(), h.Percentile(50), h.Percentile(99), h.MaxV)
	return b.String()
}
