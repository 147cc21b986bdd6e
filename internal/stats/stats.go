// Package stats provides the small statistical toolkit the evaluation
// uses: the paper's normalized mean-deviation imbalance metric, means
// and medians, and five-number summaries for the violin plots of
// Figs. 14 and 15.
package stats

import (
	"math"
	"sort"
)

// MeanDeviation returns the mean absolute deviation of xs from their
// mean, normalized to the mean (as a fraction; multiply by 100 for the
// percentages the paper plots). This is the imbalance metric of Figs. 1,
// 12, 14 and 15: deviation of per-SC quantities normalized to the mean of
// all SCs. Returns 0 for empty input or zero mean.
func MeanDeviation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	dev := 0.0
	for _, x := range xs {
		dev += math.Abs(x - mean)
	}
	return dev / float64(len(xs)) / mean
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, the conventional way to
// average speedups. All inputs must be positive; non-positive inputs
// contribute as if they were 1.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
		}
	}
	return math.Exp(s / float64(len(xs)))
}

// Median returns the median of xs (0 for empty input). The input is
// not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Summary is a five-number summary plus mean, the data behind a violin
// plot entry.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	Median   float64
	Q1, Q3   float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   Mean(sorted),
		Median: quantile(sorted, 0.5),
		Q1:     quantile(sorted, 0.25),
		Q3:     quantile(sorted, 0.75),
	}
}

// quantile returns the q-quantile of sorted data using linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
