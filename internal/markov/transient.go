package markov

import (
	"math"

	"repro/internal/linalg"
)

// transientEpsilon bounds the truncation error of uniformization per
// evaluation point.
const transientEpsilon = 1e-12

// TransientAt returns the state distribution at time t starting from the
// distribution p0, computed by uniformization (Jensen's method):
//
//	π(t) = Σ_k PoissonPMF(Λt; k) · p0 · Pᵏ,  P = I + Q/Λ
//
// The Poisson weights are generated by the stable Fox–Glynn-style
// recursion in solver.go, and the series is truncated when the
// accumulated weight exceeds 1 − ε (ε = 10⁻¹²). Uniformization is unconditionally
// stable (all quantities are probabilities), which matters for the
// paper's chains, whose time horizon (10^5 hours) times rates
// (10^-6..10^-5 per hour) would make a naive matrix-exponential Taylor
// series useless.
//
// The heavy lifting lives in the reusable Solver (solver.go): this
// method draws a pooled Solver so the CSR-native uniformized matrix is
// built once per sealed chain and repeated calls allocate only the
// result vector.
func (c *Chain) TransientAt(p0 []float64, t float64) []float64 {
	if len(p0) != c.Len() {
		panic("markov: initial distribution length mismatch")
	}
	if t < 0 {
		panic("markov: negative time")
	}
	s := c.getSolver()
	defer c.putSolver(s)
	return s.TransientAt(p0, t)
}

// TransientSeries evaluates the transient distribution at each of the given
// times (which must be non-decreasing) with checkpointed restarts: each
// point continues uniformization from the previous point's distribution,
// so a sorted series costs one pass over [0, t_max] instead of
// len(times) independent solves.
func (c *Chain) TransientSeries(p0 []float64, times []float64) [][]float64 {
	if len(p0) != c.Len() {
		panic("markov: initial distribution length mismatch")
	}
	s := c.getSolver()
	defer c.putSolver(s)
	return s.TransientSeries(p0, times)
}

// TransientRK45 computes the transient distribution at time t by
// integrating dπ/dt = π·Q with the Dormand–Prince RK45 adaptive
// Runge–Kutta method. It exists as an independent numerical method to
// cross-validate uniformization; uniformization should be preferred for
// production use.
func (c *Chain) TransientRK45(p0 []float64, t float64, tol float64) []float64 {
	if tol <= 0 {
		tol = 1e-10
	}
	q := c.Generator()
	n := c.Len()
	deriv := func(dst, y []float64) { q.VecMulTo(dst, y) }

	y := linalg.CloneVec(p0)
	if t == 0 {
		return y
	}
	// Initial step: a fraction of the fastest time constant.
	h := t / 100
	if lam := c.MaxExitRate(); lam > 0 && 0.1/lam < h {
		h = 0.1 / lam
	}
	x := 0.0
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	k5 := make([]float64, n)
	k6 := make([]float64, n)
	k7 := make([]float64, n)
	tmp := make([]float64, n)
	y5 := make([]float64, n)
	y4 := make([]float64, n)

	stage := func(dst []float64, coeffs []float64, ks ...[]float64) {
		copy(dst, y)
		for i, cf := range coeffs {
			if cf != 0 {
				linalg.AXPY(h*cf, ks[i], dst)
			}
		}
	}

	for x < t {
		if x+h > t {
			h = t - x
		}
		deriv(k1, y)
		stage(tmp, []float64{1.0 / 5}, k1)
		deriv(k2, tmp)
		stage(tmp, []float64{3.0 / 40, 9.0 / 40}, k1, k2)
		deriv(k3, tmp)
		stage(tmp, []float64{44.0 / 45, -56.0 / 15, 32.0 / 9}, k1, k2, k3)
		deriv(k4, tmp)
		stage(tmp, []float64{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729}, k1, k2, k3, k4)
		deriv(k5, tmp)
		stage(tmp, []float64{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656}, k1, k2, k3, k4, k5)
		deriv(k6, tmp)
		stage(y5, []float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84}, k1, k2, k3, k4, k5, k6)
		deriv(k7, y5)
		stage(y4, []float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40},
			k1, k2, k3, k4, k5, k6, k7)

		errNorm := linalg.MaxDiff(y5, y4)
		if errNorm <= tol || h <= t*1e-14 {
			x += h
			copy(y, y5)
		}
		// PI-style step adaptation with safety factor.
		if errNorm == 0 {
			h *= 5
		} else {
			f := 0.9 * math.Pow(tol/errNorm, 0.2)
			if f > 5 {
				f = 5
			}
			if f < 0.2 {
				f = 0.2
			}
			h *= f
		}
	}
	linalg.Normalize(y)
	return y
}
