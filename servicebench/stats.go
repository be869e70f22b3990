package main

import (
	"math"
	"slices"
	"sort"
)

// quartiles returns Q1, median and Q3 of xs by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), the method the benchmark's
// steadiness rule is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// tail returns the highest whole percentile that leaves at least ten
// samples above it (nearest rank), and the Harrell–Davis estimate of the
// latency at that percentile. With ten samples or fewer it returns the
// maximum as percentile 100.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return slices.Max(xs), 100
	}
	pct = 100 * (n - 10) / n
	return hdQuantile(xs, float64(pct)/100), pct
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs: the
// mean of the order statistics weighted by a Beta((n+1)p, (n+1)(1-p))
// distribution. Job latencies come in tight clusters, one per subject,
// and a single order statistic jumps between clusters from run to run;
// the weighted mean moves smoothly.
func hdQuantile(xs []float64, p float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := float64(len(d))
	a, b := p*(n+1), (1-p)*(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range d {
		cur := betaInc(a, b, float64(i+1)/n)
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, §6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < 1e-15 {
			break
		}
	}
	return h
}

// nearestRank is the plain pct-th percentile of xs by nearest rank.
func nearestRank(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	rank := int(math.Ceil(float64(pct) * float64(len(d)) / 100))
	return d[max(rank, 1)-1]
}
