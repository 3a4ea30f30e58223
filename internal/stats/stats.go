// Package stats provides the estimators the reproduction reports with:
// streaming mean/variance (Welford), normal-approximation confidence
// intervals for Monte-Carlo estimates, binomial proportion intervals for
// empirical reliability, time-weighted averages, and the "count of leading
// nines" formatting the paper uses in Figure 7 (9^4 ≡ 0.9999…).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with <2 observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI returns the normal-approximation confidence interval of the mean at
// the given z (1.96 for 95%).
func (w *Welford) CI(z float64) (lo, hi float64) {
	h := z * w.StdErr()
	return w.mean - h, w.mean + h
}

// Proportion is a Bernoulli success-rate estimator.
type Proportion struct {
	Successes int
	Trials    int
}

// Add records one trial.
func (p *Proportion) Add(success bool) {
	p.Trials++
	if success {
		p.Successes++
	}
}

// Estimate returns the sample proportion (0 with no trials).
func (p *Proportion) Estimate() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// Wilson returns the Wilson score interval at the given z — well-behaved
// even when the proportion sits at 0 or 1, which reliability estimates
// near 1.0 routinely do.
func (p *Proportion) Wilson(z float64) (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	ph := p.Estimate()
	z2 := z * z
	den := 1 + z2/n
	center := (ph + z2/(2*n)) / den
	half := z / den * math.Sqrt(ph*(1-ph)/n+z2/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half)
}

// TimeWeighted accumulates a time-weighted average of a piecewise-constant
// signal, e.g. instantaneous delivered bandwidth.
type TimeWeighted struct {
	last    float64 // current signal value
	lastT   float64
	area    float64
	began   float64
	started bool
}

// Nines returns the number of consecutive leading nines after the decimal
// point of an availability value in [0, 1): the paper's 9^x notation
// (0.9999 → 4). Values ≥ 1 return the cap; values < 0.9 return 0. cap
// bounds the count for values like 1.0 (probability indistinguishable from
// one at float64 precision).
func Nines(a float64, cap int) int {
	if cap <= 0 {
		cap = 16
	}
	if a >= 1 {
		return cap
	}
	n := 0
	for n < cap {
		if a < 0.9 {
			break
		}
		a = a*10 - 9 // strip one leading 9
		n++
	}
	return n
}

// FormatNines renders the paper's 9^x notation, e.g. "9^4" for 0.99995.
func FormatNines(a float64, cap int) string {
	return fmt.Sprintf("9^%d", Nines(a, cap))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample using linear
// interpolation. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}
