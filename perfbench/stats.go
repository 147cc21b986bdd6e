package main

import (
	"sort"
	"time"

	"dtexl/internal/stats"
)

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report matches the acceptance arithmetic.
// Fewer than two values yield (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// tail is the reported tail latency: the value, the percentile it sits
// at, and the sample count it was taken from.
type tail struct {
	Pct   float64
	Value time.Duration
	N     int
}

// tailOf applies the benchmark's tail rule: p99 once a run has at least
// 1,000 samples (p99 then has at least ten samples beyond it);
// otherwise the highest percentile with exactly ten samples beyond it
// (nearest rank); and with 20 or fewer samples, where no percentile
// above the median has ten beyond it, the median.
func tailOf(xs []time.Duration) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	switch {
	case n >= 1000:
		k := (99*n+99)/100 - 1 // nearest rank: ceil(0.99 n) - 1
		return tail{Pct: 99, Value: s[k], N: n}
	case n > 20:
		k := n - 11 // ten samples strictly beyond s[k]
		return tail{Pct: 100 * float64(k+1) / float64(n), Value: s[k], N: n}
	default:
		return tail{Pct: 50, Value: durMedian(s), N: n}
	}
}

// durMedian is stats.Median over durations.
func durMedian(xs []time.Duration) time.Duration {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return time.Duration(stats.Median(f))
}

// durSum adds durations.
func durSum(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t
}

// ms and secs convert durations to the benchmark's reporting units
// without rounding.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }
