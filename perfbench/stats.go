package main

import (
	"math"
	"sort"
	"time"
)

// ppGap is the mean absolute difference between paired rates, in
// percentage points: the paper's Fig 6 "error" for miss rates.
func ppGap(orig, clone []float64) float64 {
	if len(orig) == 0 {
		return 0
	}
	var sum float64
	for i := range orig {
		sum += math.Abs(orig[i] - clone[i])
	}
	return 100 * sum / float64(len(orig))
}

// relGapPct is the mean of |orig - clone| / orig over the pairs whose
// original is non-zero, in percent: the Fig 7 magnitude error.
func relGapPct(orig, clone []float64) float64 {
	var sum float64
	n := 0
	for i := range orig {
		if orig[i] == 0 {
			continue
		}
		sum += math.Abs(orig[i]-clone[i]) / orig[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// pearson is Pearson's r over all pairs pooled together; 0 when either
// side has no variance.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so spreads computed here match the ones the benchmark's
// acceptance is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value (mean of the middle two for even counts),
// 0 for no values.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	_, m, _ := quartiles(values)
	return m
}

// medianSeconds is median over durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return median(s)
}
