package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {0, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		want float64
		n    int
		p    float64
		ok   bool
	}{
		{99, 1000, 99, true}, // rank 990, 10 beyond
		{99, 999, 95, true},  // rank 990, 9 beyond: fall back
		{95, 200, 95, true},  // rank 190, 10 beyond
		{95, 199, 90, true},  // rank 190, 9 beyond
		{90, 40, 75, true},   // rank 30, 10 beyond
		{90, 20, 50, true},   // rank 10, 10 beyond
		{90, 19, 50, false},  // rank 10, 9 beyond: nothing qualifies
		{99.9, 10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.want, c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%v, %d) = %v,%v; want %v,%v", c.want, c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	on := openLoopSample{due: at(10), sent: at(10), done: at(15)}
	stalled := openLoopSample{due: at(20), sent: at(50), done: at(55)}
	early := openLoopSample{due: at(30), sent: at(29), done: at(31)}
	if on.late() != 0 || on.latency() != 5*time.Millisecond {
		t.Errorf("on-time sample: late %v latency %v", on.late(), on.latency())
	}
	// A request the generator sent 30ms late is charged those 30ms.
	if stalled.late() != 30*time.Millisecond || stalled.latency() != 35*time.Millisecond {
		t.Errorf("stalled sample: late %v latency %v", stalled.late(), stalled.latency())
	}
	if early.late() != 0 || early.latency() != time.Millisecond {
		t.Errorf("early sample: late %v latency %v", early.late(), early.latency())
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 50, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 50, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) < 60 || len(a) > 140 {
		t.Fatalf("rate 50/s over 2s gave %d arrivals", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("schedule not increasing inside the window at %d: %v", i, a[i])
		}
	}
}

func TestSlicerMedians(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := newSlicer(t0, 3*time.Second, 3)
	// Slices of 20, 30 and 1000 samples per second: the burst in the last
	// slice does not move the median rate or the median p50.
	for i, n := range []int{20, 30, 1000} {
		for j := 0; j < n; j++ {
			s.add(t0.Add(time.Duration(i)*time.Second+time.Duration(j)*time.Second/time.Duration(n)), float64(i+1))
		}
	}
	s.add(t0.Add(-time.Millisecond), 99) // before the window
	s.add(t0.Add(3*time.Second), 99)     // after it
	if s.count() != 1050 {
		t.Errorf("count %d, want 1050", s.count())
	}
	if got := s.rate(); got != 30 {
		t.Errorf("rate %v, want 30", got)
	}
	if got, ok := s.percentile(50); got != 2 || !ok {
		t.Errorf("p50 %v,%v, want 2,true", got, ok)
	}
	// p99 of a 20-sample slice has no sample beyond it.
	if _, ok := s.percentile(99); ok {
		t.Error("p99 over a 20-sample slice passed the ten-beyond rule")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50},
		{"sticking out", []interval{iv(-20, 10), iv(90, 150)}, 80},
		{"outside", []interval{iv(200, 300)}, 100},
		{"covering", []interval{iv(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the benchmark definition at the repository
// root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		units map[string]string
		defs  []struct{ Name, Unit string }
	}{{"end_to_end", endToEndUnits, def.EndToEnd}, {"per_layer", perLayerUnits, def.PerLayer}} {
		got := map[string]string{}
		for _, d := range c.defs {
			got[d.Name] = d.Unit
		}
		if !reflect.DeepEqual(got, c.units) {
			t.Errorf("%s: BENCHMARK.json has %v, the program prints %v", c.what, got, c.units)
		}
	}
}
