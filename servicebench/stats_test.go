package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestTailPercentileLeavesTenSamplesAbove(t *testing.T) {
	for _, n := range []int{11, 15, 28, 56, 75, 86, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, pct := tail(xs)
		// Nearest rank of the percentile, and of the next one up.
		rank := int(math.Ceil(float64(pct) * float64(n) / 100))
		next := int(math.Ceil(float64(pct+1) * float64(n) / 100))
		if n-rank < 10 || n-next >= 10 {
			t.Errorf("n=%d: p%d is not the highest percentile with ten samples above", n, pct)
		}
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%d, want the maximum at p100", v, pct)
	}
}

func TestHarrellDavis(t *testing.T) {
	// I_x(1, 1) = x and I_x(2, 2) = 3x² - 2x³.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := betaInc(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
		if got, want := betaInc(2, 2, x), 3*x*x-2*x*x*x; math.Abs(got-want) > 1e-12 {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// Reference values from an independent implementation.
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 0.5, 5.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, 0.9, 392.60848549412265},
		{[]float64{3, 1, 2, 7, 5, 11, 13, 17, 19, 23, 29, 31}, 0.25, 4.503471494193871},
	}
	for _, c := range cases {
		if got := hdQuantile(c.xs, c.p); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("HD p%v of %v = %v, want %v", c.p, c.xs, got, c.want)
		}
	}
	// Clustered samples: the estimate lies between the clusters' values
	// and moves little when one sample crosses the median.
	a := []float64{100, 101, 102, 103, 104, 200, 201, 202, 203, 204, 205}
	b := append([]float64(nil), a...)
	b[5] = 150
	ma, mb := hdQuantile(a, 0.5), hdQuantile(b, 0.5)
	if ma <= 104 || ma >= 200 || math.Abs(ma-mb) > 15 {
		t.Errorf("HD medians %v and %v", ma, mb)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
