package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean must be 0")
	}
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v", got)
	}
	// Non-positive entries are skipped.
	if got := GeoMean([]float64{-1, 0, 4}); got != 4 {
		t.Fatalf("geomean with junk = %v", got)
	}
	if GeoMean([]float64{0, -2}) != 0 {
		t.Fatal("all-junk geomean must be 0")
	}
}

func TestGeoMeanLeqMean(t *testing.T) {
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 100) != 5 || Percentile(xs, 0) != 1 {
		t.Fatal("extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("percentile sorted the caller's slice")
	}
}

func TestReductionPct(t *testing.T) {
	if ReductionPct(0, 5) != 0 {
		t.Fatal("zero base must yield 0")
	}
	if got := ReductionPct(200, 100); got != 50 {
		t.Fatalf("got %v", got)
	}
	if got := ReductionPct(100, 120); got != -20 {
		t.Fatalf("negative reduction: got %v", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.String() != "empty" || h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram misbehaves")
	}
	for _, v := range []float64{1, 2, 4, 8, 100} {
		h.Add(v)
	}
	if h.N != 5 || h.MaxV != 100 {
		t.Fatalf("n=%d max=%v", h.N, h.MaxV)
	}
	if m := h.Mean(); m != 23 {
		t.Fatalf("mean %v", m)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 %v", p)
	}
	if p := h.Percentile(50); p < 2 || p > 8 {
		t.Fatalf("p50 bound %v", p)
	}
	if h.String() == "" {
		t.Fatal("summary empty")
	}
}

func TestHistogramClampsNegatives(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.N != 1 || h.Sum != 0 {
		t.Fatalf("negative sample not clamped: %+v", h)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	prev := 0.0
	for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone at p%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

// TestHistogramPercentileEdges pins the p-clamping contract: out-of-range p
// behaves like the nearest bound (a negative p used to convert to a huge
// unsigned rank), p=0 still lands in the smallest occupied bucket, and
// bucket edges never exceed the observed maximum — including bucket 0's
// edge of 1.0 over sub-1 samples.
func TestHistogramPercentileEdges(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{-10, 0, 50, 100, 200} {
		if v := empty.Percentile(p); v != 0 {
			t.Errorf("empty p%v = %v, want 0", p, v)
		}
	}

	var h Histogram
	for _, v := range []float64{2, 4, 8} {
		h.Add(v)
	}
	if lo, p0 := h.Percentile(-5), h.Percentile(0); lo != p0 {
		t.Errorf("p-5 = %v, want clamped to p0 = %v", lo, p0)
	}
	if hi, p100 := h.Percentile(200), h.Percentile(100); hi != p100 {
		t.Errorf("p200 = %v, want clamped to p100 = %v", hi, p100)
	}
	if v := h.Percentile(0); v < 2 || v > 4 {
		t.Errorf("p0 = %v, want the smallest sample's bucket edge in [2,4]", v)
	}

	var sub Histogram
	sub.Add(0.25) // bucket 0's nominal edge is 1.0, above the observed max
	for _, p := range []float64{0, 50, 100} {
		if v := sub.Percentile(p); v != 0.25 {
			t.Errorf("sub-1 sample p%v = %v, want clamped to max 0.25", p, v)
		}
	}
}

func TestHistogramHugeValues(t *testing.T) {
	var h Histogram
	h.Add(math.MaxFloat64) // must not panic or index out of range
	if h.Percentile(100) != math.MaxFloat64 {
		t.Fatal("max lost")
	}
}

// TestHistogramBucketMatchesLog2: the Frexp-based bucket equals the exact
// int(math.Log2(v))+1 formula it replaced (clamped to the last bucket) at
// every power of two and 4 ulps either side, where Log2's rounding decides
// the bucket, and on 1M seeded random values.
func TestHistogramBucketMatchesLog2(t *testing.T) {
	const n = len(Histogram{}.Buckets)
	want := func(v float64) int {
		i := 0
		if v >= 1 {
			i = int(math.Log2(v)) + 1
			if i >= n {
				i = n - 1
			}
		}
		return i
	}
	check := func(v float64) {
		if got, w := bucket(v, n), want(v); got != w {
			t.Fatalf("bucket(%v) = %d, Log2 formula gives %d", v, got, w)
		}
	}
	for exp := -4; exp <= 1000; exp++ {
		p := math.Ldexp(1, exp)
		check(p)
		up, down := p, p
		for k := 0; k < 4; k++ {
			up = math.Nextafter(up, math.Inf(1))
			down = math.Nextafter(down, 0)
			check(up)
			check(down)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1_000_000; k++ {
		switch k % 3 {
		case 0: // log-uniform across every bucket and past the last
			check(math.Exp2(rng.Float64() * 48))
		case 1: // latency-like values in cycles
			check(rng.Float64() * 4096)
		default: // integer-valued samples near powers of two
			check(float64(uint64(1)<<rng.Intn(45) + uint64(rng.Intn(9)) - 4))
		}
	}
}
