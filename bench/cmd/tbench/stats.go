package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of an ascending slice, interpolating
// linearly between the two closest ranks. An empty slice gives 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond is the number of samples ranked above the q-quantile of n. A
// tail percentile is worth reporting when at least ten lie beyond it.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// quartiles returns the three cut points dividing values into quarters,
// computed as Python's statistics.quantiles(values, n=4) computes them
// (the "exclusive" method). It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	m := ld + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		cut[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2]
}

func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	return quantile(data, 0.5)
}

// millis converts durations to ascending milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
