package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one or two
// unlucky requests, not a property of the system.
const minBeyond = 10

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest-rank index of percentile p among n sorted
// samples: the smallest rank whose share of samples at or below it is at
// least p%.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9% of 10000 is 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (0 for no
// samples). xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))-1]
}

// tailPercentile picks the percentile to report as the tail: want when at
// least minBeyond of n samples lie above its rank, otherwise the highest
// candidate below want that has them. ok is false when even the median
// has fewer than minBeyond samples beyond it.
func tailPercentile(want float64, n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if c > want {
			continue
		}
		if n-rankOf(c, n) >= minBeyond {
			return c, true
		}
	}
	return 50, false
}

// median is the 50th nearest-rank percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonSchedule returns the send offsets of an open-loop arrival process
// at rate per second over window: exponential gaps drawn from rng, so the
// schedule is a pure function of the seed.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= window {
			return out
		}
		out = append(out, t)
	}
}

// openLoopSample is one open-loop request: when it was due, when the
// generator actually sent it, and when its result arrived.
type openLoopSample struct {
	due, sent, done time.Time
}

// late is how far behind schedule the generator sent the request (never
// negative: sending early is not possible, only timer jitter).
func (s openLoopSample) late() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// latency is measured from the due time, not the send time, so a stalled
// generator charges its stall to every request that queued behind it.
func (s openLoopSample) latency() time.Duration { return s.done.Sub(s.due) }

// completionRate counts completions inside a measured window. The rate
// runs from the window's start to the last completion inside it, not to
// the window's end, so a burst of completions straddling the end does not
// quantize the rate.
type completionRate struct {
	start, end, last time.Time
	n                int
}

func (c *completionRate) done(t time.Time) {
	if t.Before(c.end) {
		c.n++
		c.last = t
	}
}

func (c *completionRate) perSecond() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.n) / c.last.Sub(c.start).Seconds()
}

// windowSlices is how many equal slices a measured window is cut into
// for slice medians.
const windowSlices = 6

// slicer buckets timed samples into equal slices of a window, so a rate or
// a percentile is reported as its median over the slices: a burst of host
// noise then moves one slice, not the reported value.
type slicer struct {
	start time.Time
	width time.Duration
	s     [][]float64
}

func newSlicer(start time.Time, window time.Duration, n int) *slicer {
	return &slicer{start: start, width: window / time.Duration(n), s: make([][]float64, n)}
}

// add records a sample completed at at; samples outside the window are
// dropped.
func (s *slicer) add(at time.Time, v float64) {
	if at.Before(s.start) {
		return
	}
	if i := int(at.Sub(s.start) / s.width); i < len(s.s) {
		s.s[i] = append(s.s[i], v)
	}
}

// count is the number of samples inside the window.
func (s *slicer) count() int {
	n := 0
	for _, xs := range s.s {
		n += len(xs)
	}
	return n
}

// rates lists each slice's samples per second.
func (s *slicer) rates() []float64 {
	rates := make([]float64, len(s.s))
	for i, xs := range s.s {
		rates[i] = float64(len(xs)) / s.width.Seconds()
	}
	return rates
}

// rate is the median over slices of samples per second.
func (s *slicer) rate() float64 { return median(s.rates()) }

// percentile is the median over slices of each slice's nearest-rank
// percentile p. ok is false when a slice has fewer than minBeyond samples
// beyond p's rank.
func (s *slicer) percentile(p float64) (v float64, ok bool) {
	ps := make([]float64, len(s.s))
	ok = true
	for i, xs := range s.s {
		if len(xs)-rankOf(p, len(xs)) < minBeyond {
			ok = false
		}
		ps[i] = percentile(xs, p)
	}
	return median(ps), ok
}

// interval is one closed span of time.
type interval struct{ start, end time.Time }

// selfTime is a parent span's duration minus the part of it covered by
// its children. Children may overlap each other and may stick out of the
// parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return total - covered
}
