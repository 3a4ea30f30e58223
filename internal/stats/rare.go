package stats

// This file holds the estimators the rare-event Monte-Carlo engine needs:
// a streaming log-domain accumulator for likelihood-ratio sums (LogSum), a
// likelihood-ratio tally that tracks weight extremes without leaving the
// log domain (LogWeights), and a paired ratio estimator with the
// delta-method confidence interval used by the regenerative unavailability
// estimator (Ratio). All of them are streaming and O(1) per observation so
// the batch scheduler can fold millions of cycles without retaining them.

import "math"

// LogSum accumulates log-domain values: after Add(l_1), …, Add(l_n) its
// Log() is log(Σ_i exp(l_i)), computed with the running-maximum
// log-sum-exp recurrence so the result neither underflows nor overflows
// even when the l_i are far below the exp-representable range (likelihood
// ratios of rare paths routinely sit at exp(-40) and beyond).
type LogSum struct {
	n   int
	max float64 // running maximum of the l_i
	sum float64 // Σ exp(l_i - max)
}

// Add folds one log-domain observation into the accumulator.
func (s *LogSum) Add(l float64) {
	if s.n == 0 || l > s.max {
		if s.n == 0 {
			s.sum = 1
		} else {
			// Rescale the accumulated sum to the new maximum.
			s.sum = s.sum*math.Exp(s.max-l) + 1
		}
		s.max = l
	} else {
		s.sum += math.Exp(l - s.max)
	}
	s.n++
}

// N returns the number of observations.
func (s *LogSum) N() int { return s.n }

// Log returns log(Σ exp(l_i)); -Inf with no observations.
func (s *LogSum) Log() float64 {
	if s.n == 0 {
		return math.Inf(-1)
	}
	return s.max + math.Log(s.sum)
}

// LogWeights tallies the likelihood ratios of an importance-sampling run
// in the log domain: the weight sum and sum of squares (for the effective
// sample size diagnostic) and the extreme log-weights an operator watches
// to detect a mis-tuned biasing scheme.
type LogWeights struct {
	sum   LogSum
	sumSq LogSum
	// Max and Min are the extreme observed log-weights (0 each before the
	// first Add).
	Max float64
	Min float64
}

// Add records one log-weight.
func (w *LogWeights) Add(logw float64) {
	if w.sum.N() == 0 || logw > w.Max {
		w.Max = logw
	}
	if w.sum.N() == 0 || logw < w.Min {
		w.Min = logw
	}
	w.sum.Add(logw)
	w.sumSq.Add(2 * logw)
}

// N returns the number of weights recorded.
func (w *LogWeights) N() int { return w.sum.N() }

// ESS returns Kish's effective sample size (Σ W)² / Σ W², the standard
// importance-sampling health diagnostic: n when all weights are equal,
// collapsing toward 1 as a few weights dominate.
func (w *LogWeights) ESS() float64 {
	if w.sum.N() == 0 {
		return 0
	}
	return math.Exp(2*w.sum.Log() - w.sumSq.Log())
}

// Ratio accumulates paired observations (x_i, y_i) and estimates
// E[x]/E[y] — the regenerative-process form of a steady-state measure,
// where x is the weighted per-cycle reward and y the per-cycle length.
// Variance comes from the delta method over the joint sample moments, the
// standard CI for regenerative ratio estimators.
type Ratio struct {
	n             int
	mx, my        float64 // running means
	cxx, cyy, cxy float64 // Σ of centered (co)products
}

// Add folds one paired observation.
func (r *Ratio) Add(x, y float64) {
	r.n++
	n := float64(r.n)
	dx := x - r.mx
	dy := y - r.my
	r.mx += dx / n
	r.my += dy / n
	r.cxx += dx * (x - r.mx)
	r.cyy += dy * (y - r.my)
	r.cxy += dx * (y - r.my)
}

// Estimate returns x̄/ȳ (0 when no mass has been observed).
func (r *Ratio) Estimate() float64 {
	if r.n == 0 || r.my == 0 {
		return 0
	}
	return r.mx / r.my
}

// Variance returns the delta-method variance of the ratio estimate:
//
//	Var(x̄/ȳ) ≈ (s_xx − 2·R·s_xy + R²·s_yy) / (n·ȳ²)
//
// with s the unbiased sample (co)variances and R the point estimate. It
// returns 0 with fewer than two pairs.
func (r *Ratio) Variance() float64 {
	if r.n < 2 || r.my == 0 {
		return 0
	}
	n := float64(r.n)
	sxx := r.cxx / (n - 1)
	syy := r.cyy / (n - 1)
	sxy := r.cxy / (n - 1)
	est := r.mx / r.my
	v := (sxx - 2*est*sxy + est*est*syy) / (n * r.my * r.my)
	if v < 0 {
		return 0 // numerical cancellation near zero variance
	}
	return v
}

// StdErr returns the delta-method standard error of the ratio.
func (r *Ratio) StdErr() float64 { return math.Sqrt(r.Variance()) }

// CI returns the normal-approximation confidence interval of the ratio at
// the given z.
func (r *Ratio) CI(z float64) (lo, hi float64) {
	h := z * r.StdErr()
	est := r.Estimate()
	return est - h, est + h
}

// RelHalfWidth returns the relative CI half-width z·SE/|estimate| — the
// quantity the sequential stopping rule drives to its target. It returns
// +Inf while the estimate is zero (nothing rare observed yet), so a
// stopping rule keeps running.
func (r *Ratio) RelHalfWidth(z float64) float64 {
	est := r.Estimate()
	if est == 0 {
		return math.Inf(1)
	}
	return z * r.StdErr() / math.Abs(est)
}

// RelHalfWidth returns the relative CI half-width z·StdErr/|mean| of the
// accumulated sample, +Inf while the mean is zero.
func (w *Welford) RelHalfWidth(z float64) float64 {
	if w.mean == 0 {
		return math.Inf(1)
	}
	return z * w.StdErr() / math.Abs(w.mean)
}
