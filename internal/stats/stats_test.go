package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestMeanDeviation(t *testing.T) {
	// Perfectly balanced input has zero deviation.
	if got := MeanDeviation([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("balanced deviation = %v", got)
	}
	// [0, 10]: mean 5, |dev| = 5 each, normalized = 1.
	if got := MeanDeviation([]float64{0, 10}); !almost(got, 1) {
		t.Errorf("deviation = %v, want 1", got)
	}
	// [2, 4, 6, 8]: mean 5, deviations 3,1,1,3 -> mad 2, normalized 0.4.
	if got := MeanDeviation([]float64{2, 4, 6, 8}); !almost(got, 0.4) {
		t.Errorf("deviation = %v, want 0.4", got)
	}
	if got := MeanDeviation(nil); got != 0 {
		t.Errorf("MeanDeviation(nil) = %v", got)
	}
	if got := MeanDeviation([]float64{0, 0}); got != 0 {
		t.Errorf("MeanDeviation(zero mean) = %v", got)
	}
}

func TestMeanDeviationScaleInvariant(t *testing.T) {
	// Property: scaling all samples by a positive constant does not change
	// the normalized deviation — it is a relative imbalance measure.
	f := func(a, b, c, d uint16, scale uint8) bool {
		if scale == 0 {
			return true
		}
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1}
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = xs[i] * float64(scale)
		}
		return math.Abs(MeanDeviation(xs)-MeanDeviation(ys)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almost(got, 2) {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almost(got, 2) {
		t.Errorf("GeoMean = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almost(s.Median, 3) || !almost(s.Mean, 3) {
		t.Errorf("Summary = %+v", s)
	}
	if !almost(s.Q1, 2) || !almost(s.Q3, 4) {
		t.Errorf("quartiles = %v %v", s.Q1, s.Q3)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Errorf("single-sample summary = %+v", one)
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	a := Summarize([]float64{1, 2, 3, 4, 5, 6})
	b := Summarize([]float64{6, 3, 1, 5, 2, 4})
	if a != b {
		t.Errorf("summaries differ: %+v vs %+v", a, b)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}
