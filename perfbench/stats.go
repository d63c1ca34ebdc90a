package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads this benchmark reports are the ones anyone
// recomputes from its JSON lines. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// tailLadder is the set of percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile applies the reporting rule for timings: the tail is the
// highest percentile of tailLadder that still has at least ten samples
// beyond it. ok is false when n samples support none of them (n < 40).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// timing summarizes one timing series by the reporting rule: sample count,
// median and quartiles, and the qualifying tail percentile when one exists.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if q1, _, q3, err := quartiles(xs); err == nil {
		t.Q1, t.Q3 = q1, q3
	}
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, percentile(xs, p)
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
