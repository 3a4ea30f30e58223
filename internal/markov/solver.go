package markov

import (
	"math"

	"repro/internal/linalg"
)

// Solver is a reusable uniformization engine for one sealed chain. It
// caches everything a transient solve needs — the CSR uniformized DTMC
// P = I + Q/Λ (shared across all Solvers of the chain), the
// uniformization rate Λ, the Poisson truncation window and weights of
// the most recent horizon, and the propagation scratch vectors — so a
// grid of evaluation points pays the setup cost once and allocates
// nothing per point.
//
// A Solver is not safe for concurrent use; the Chain convenience
// methods draw Solvers from an internal pool, and grid sweeps should
// give each worker its own Solver (or its own model).
type Solver struct {
	c      *Chain
	p      *linalg.CSR // uniformized DTMC, nil when Λ = 0
	lambda float64

	// Poisson window cache: weights w[k0 .. k0+len(w)-1] for mean wm,
	// summing to wsum ≥ 1−ε. Recomputed only when the mean changes.
	wm   float64
	k0   int
	w    []float64
	wsum float64

	// Propagation scratch.
	cur, next []float64
}

// NewSolver returns a Solver for the sealed chain.
func NewSolver(c *Chain) *Solver {
	p, lambda := c.uniformized()
	n := c.Len()
	return &Solver{
		c:      c,
		p:      p,
		lambda: lambda,
		wm:     -1,
		cur:    make([]float64, n),
		next:   make([]float64, n),
	}
}

// ensureWeights fills the Poisson window for mean m: it skips the
// negligible left tail (recording how many DTMC steps the caller must
// burn to reach k0) and accumulates weights until 1−ε of the mass is
// covered. The window is cached and reused while m is unchanged, so
// repeated solves at the same horizon recompute nothing.
func (s *Solver) ensureWeights(m float64) {
	if m == s.wm {
		return
	}
	logW := -m // log w_0 = −m
	k := 0
	logm := math.Log(m)
	for logW < math.Log(transientEpsilon)-40 && float64(k) < m {
		k++
		logW += logm - math.Log(float64(k))
	}
	s.k0 = k
	w := math.Exp(logW)
	s.w = s.w[:0]
	acc := 0.0
	for {
		s.w = append(s.w, w)
		if w > 0 {
			acc += w
		}
		if acc >= 1-transientEpsilon {
			break
		}
		k++
		w *= m / float64(k)
		if w == 0 && float64(k) > m {
			// The right tail has underflowed past the Poisson peak: the
			// remaining mass is below float resolution. Stop here; the
			// final renormalization absorbs the deficit exactly as it
			// absorbs the ε truncation.
			break
		}
		if k > 100_000_000 {
			panic("markov: uniformization failed to converge")
		}
	}
	s.wm = m
	s.wsum = acc
}

// ssTol is the steady-state shortcut tolerance: once p·Pᵏ stops moving
// by more than this, every further term contributes the same vector and
// the remaining Poisson mass is assigned in one step. This is what
// keeps stiff availability chains over 10⁸-hour horizons cheap.
const ssTol = 1e-15

// advance steps the uniformized DTMC once (cur ← cur·P) and reports
// whether the distribution has reached its stationary point.
func (s *Solver) advance() bool {
	s.p.VecMulTo(s.next, s.cur)
	done := linalg.MaxDiff(s.cur, s.next) < ssTol
	s.cur, s.next = s.next, s.cur
	return done
}

// solveInto computes the transient distribution at horizon t starting
// from `from`, writing the result into dst (len = chain states). It is
// allocation-free apart from first-use growth of the cached buffers.
// dst must not alias from.
func (s *Solver) solveInto(dst, from []float64, t float64) {
	if t < 0 {
		panic("markov: negative time")
	}
	if t == 0 || s.lambda == 0 {
		copy(dst, from)
		return
	}
	m := s.lambda * t
	s.ensureWeights(m)
	copy(s.cur, from)
	for i := range dst {
		dst[i] = 0
	}
	// Burn the left tail: apply P k0 times so cur tracks from·P^k0.
	for k := 0; k < s.k0; k++ {
		if s.advance() {
			// The DTMC reached its stationary vector before the Poisson
			// window: the answer is that vector.
			copy(dst, s.cur)
			linalg.Normalize(dst)
			return
		}
	}
	acc := 0.0
	for j, w := range s.w {
		if w > 0 {
			linalg.AXPY(w, s.cur, dst)
			acc += w
		}
		if j == len(s.w)-1 {
			break
		}
		if s.advance() {
			// Attribute all remaining probability mass to the converged
			// vector.
			linalg.AXPY(1-acc, s.cur, dst)
			break
		}
	}
	// Renormalize the tiny truncation deficit.
	linalg.Normalize(dst)
}

// TransientAt returns the state distribution at time t starting from p0.
// Semantics match Chain.TransientAt; the Solver's cached state makes
// repeated calls cheap and deterministic regardless of call order.
func (s *Solver) TransientAt(p0 []float64, t float64) []float64 {
	out := make([]float64, s.c.Len())
	s.TransientInto(out, p0, t)
	return out
}

// TransientInto is TransientAt writing into a caller-provided slice,
// allocating nothing.
func (s *Solver) TransientInto(dst, p0 []float64, t float64) {
	if len(p0) != s.c.Len() || len(dst) != s.c.Len() {
		panic("markov: distribution length mismatch")
	}
	s.solveInto(dst, p0, t)
}

// TransientSeriesInto evaluates the transient distribution at each of
// the given times (which must be non-decreasing) into dst, one pass:
// each point restarts uniformization from the previous point's
// distribution (a checkpointed restart), so a sorted series costs one
// sweep over [0, t_max] instead of len(times) independent solves from
// zero. Zero allocations per point.
func (s *Solver) TransientSeriesInto(dst [][]float64, p0 []float64, times []float64) {
	if len(dst) != len(times) {
		panic("markov: TransientSeriesInto length mismatch")
	}
	if len(p0) != s.c.Len() {
		panic("markov: distribution length mismatch")
	}
	prev := 0.0
	from := p0
	for i, t := range times {
		if t < prev {
			panic("markov: TransientSeries times must be non-decreasing")
		}
		if len(dst[i]) != s.c.Len() {
			panic("markov: TransientSeriesInto row length mismatch")
		}
		s.solveInto(dst[i], from, t-prev)
		from = dst[i]
		prev = t
	}
}

// TransientSeries is TransientSeriesInto with the result rows allocated
// in one backing slab (two allocations for the whole series).
func (s *Solver) TransientSeries(p0 []float64, times []float64) [][]float64 {
	n := s.c.Len()
	flat := make([]float64, len(times)*n)
	out := make([][]float64, len(times))
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	s.TransientSeriesInto(out, p0, times)
	return out
}

// getSolver draws a Solver from the chain's pool (or builds one) and
// retunes it; putSolver returns it. The pool makes the Chain-level
// convenience methods allocation-free after warm-up and safe to call
// from concurrent sweep workers.
func (c *Chain) getSolver() *Solver {
	if s, ok := c.solvers.Get().(*Solver); ok {
		return s
	}
	return NewSolver(c)
}

func (c *Chain) putSolver(s *Solver) { c.solvers.Put(s) }
