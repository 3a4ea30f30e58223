package markov

import (
	"math"

	"repro/internal/linalg"
)

// This file preserves the seed transient solver — dense-round-trip
// uniformization with independent per-point solves and fresh buffers —
// as a committed baseline. It exists for two reasons: the property-test
// wall cross-checks the CSR-native cached Solver against it on random
// generators, and BenchmarkSolverComparison measures the rewrite's
// speedup against it for BENCH_solver.json. It is not on any production
// path.

// UniformizedDenseReference builds P = I + Q/Λ through a dense
// expansion of Q — the O(n²) seed construction that
// linalg.CSR.ScaleAddIdentity replaced.
func UniformizedDenseReference(q *linalg.CSR, lambda float64) *linalg.CSR {
	n := q.Rows()
	trips := make([]linalg.Triplet, 0, q.NNZ()+n)
	d := q.Dense()
	alpha := 1 / lambda
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d.At(i, j) * alpha
			if i == j {
				v += 1
			}
			if v != 0 {
				trips = append(trips, linalg.Triplet{Row: i, Col: j, Val: v})
			}
		}
	}
	return linalg.NewCSR(n, n, trips)
}

// TransientAtSerialDense is the seed per-point transient solver: it
// rebuilds the uniformized matrix through the dense round-trip and runs
// the full Poisson series from t = 0 on every call, allocating all
// working state afresh.
func (c *Chain) TransientAtSerialDense(p0 []float64, t float64) []float64 {
	if len(p0) != c.Len() {
		panic("markov: initial distribution length mismatch")
	}
	if t < 0 {
		panic("markov: negative time")
	}
	if t == 0 {
		return linalg.CloneVec(p0)
	}
	q := c.Generator()
	lambda := c.MaxExitRate()
	if lambda == 0 {
		return linalg.CloneVec(p0)
	}
	p := UniformizedDenseReference(q, lambda)
	m := lambda * t

	cur := linalg.CloneVec(p0)
	next := make([]float64, len(p0))
	out := make([]float64, len(p0))
	advance := func() bool {
		p.VecMulTo(next, cur)
		done := linalg.MaxDiff(cur, next) < ssTol
		cur, next = next, cur
		return done
	}
	logW := -m
	k := 0
	for logW < math.Log(transientEpsilon)-40 && float64(k) < m {
		k++
		logW += math.Log(m) - math.Log(float64(k))
		if advance() {
			linalg.Normalize(cur)
			return cur
		}
	}
	w := math.Exp(logW)
	acc := 0.0
	for {
		if w > 0 {
			linalg.AXPY(w, cur, out)
			acc += w
		}
		if acc >= 1-transientEpsilon {
			break
		}
		k++
		w *= m / float64(k)
		if k > 100_000_000 {
			panic("markov: uniformization failed to converge")
		}
		if advance() {
			linalg.AXPY(1-acc, cur, out)
			break
		}
	}
	linalg.Normalize(out)
	return out
}

// TransientSeriesSerialDense is the seed series evaluation: one
// independent from-zero solve per time point.
func (c *Chain) TransientSeriesSerialDense(p0 []float64, times []float64) [][]float64 {
	out := make([][]float64, len(times))
	prev := -1.0
	for i, t := range times {
		if t < prev {
			panic("markov: TransientSeries times must be non-decreasing")
		}
		prev = t
		out[i] = c.TransientAtSerialDense(p0, t)
	}
	return out
}
