package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		okay bool
	}{
		{0, 0, false},
		{21, 0, false}, // a sim-* run: no tail has ten samples beyond it
		{39, 0, false},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.okay {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.okay)
		}
		if ok && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", c.n, p)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 90); p != 90 {
		t.Errorf("p90 of 0..100 = %v", p)
	}
	s := summarize(xs)
	if s.N != 101 || s.Median != 50 || s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summarize = %+v", s)
	}
}
