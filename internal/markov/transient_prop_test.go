package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// This file is the property-test wall around the CSR-native solver
// rewrite: testing/quick drives the cached Solver and the committed
// seed baseline (reference.go) over random generator matrices.

// randomChain builds a random CTMC with 2..8 states, ~40% edge density,
// and rates spanning several orders of magnitude. The last state is
// left absorbing half of the time, so the diagonal-insertion path of
// ScaleAddIdentity is exercised.
func randomChain(r *rand.Rand) *Chain {
	n := 2 + r.Intn(7)
	c := NewChain()
	labels := make([]string, n)
	for i := range labels {
		labels[i] = string(rune('A' + i))
		c.State(labels[i])
	}
	absorbing := r.Intn(2) == 0
	for i := 0; i < n; i++ {
		if absorbing && i == n-1 {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || r.Float64() > 0.4 {
				continue
			}
			c.Transition(labels[i], labels[j], math.Pow(10, -3+4*r.Float64()))
		}
	}
	return c
}

func randomDist(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64()
	}
	linalg.Normalize(p)
	return p
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 30}
}

// TestPropCSRUniformizationMatchesDense: the CSR-native P = I + Q/Λ is
// entrywise identical to the seed dense-reference build.
func TestPropCSRUniformizationMatchesDense(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		q := c.Generator()
		lambda := c.MaxExitRate()
		if lambda == 0 {
			return true
		}
		got := q.ScaleAddIdentity(1 / lambda)
		want := UniformizedDenseReference(q, lambda)
		n := c.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Logf("seed %d: P[%d,%d] = %g (csr) vs %g (dense)", seed, i, j, got.At(i, j), want.At(i, j))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropTransientMatchesReference: the pooled-Solver TransientAt
// agrees with the seed per-point implementation on random chains.
func TestPropTransientMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		p0 := randomDist(r, c.Len())
		for _, horizon := range []float64{0, 0.05, 0.7, 3, 40} {
			got := c.TransientAt(p0, horizon)
			want := c.TransientAtSerialDense(p0, horizon)
			if linalg.MaxDiff(got, want) > 1e-10 {
				t.Logf("seed %d t=%g: max diff %.3e", seed, horizon, linalg.MaxDiff(got, want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropSeriesMatchesPointSolves: the checkpointed TransientSeries
// agrees with independent TransientAt calls at every time point.
func TestPropSeriesMatchesPointSolves(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		p0 := randomDist(r, c.Len())
		times := make([]float64, 1+r.Intn(12))
		acc := 0.0
		for i := range times {
			acc += r.Float64() * 5
			times[i] = acc
		}
		series := c.TransientSeries(p0, times)
		for i, tt := range times {
			want := c.TransientAt(p0, tt)
			if linalg.MaxDiff(series[i], want) > 1e-8 {
				t.Logf("seed %d t=%g: series vs point max diff %.3e", seed, tt, linalg.MaxDiff(series[i], want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropSolverReuseInvariant: a cached Solver returns bit-identical
// results regardless of call order or how many solves preceded a call,
// and matches a fresh Solver exactly.
func TestPropSolverReuseInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r)
		p0 := randomDist(r, c.Len())
		t1 := 0.1 + r.Float64()*10
		t2 := 0.1 + r.Float64()*200

		warm := NewSolver(c)
		_ = warm.TransientAt(p0, t1) // pollute caches with a different horizon
		_ = warm.TransientAt(p0, t2)
		afterReuse := warm.TransientAt(p0, t2) // cached-weights path
		again := warm.TransientAt(p0, t2)

		fresh := NewSolver(c)
		direct := fresh.TransientAt(p0, t2)

		for i := range direct {
			if afterReuse[i] != direct[i] || again[i] != direct[i] {
				t.Logf("seed %d: solver reuse diverged at state %d: %g / %g vs fresh %g",
					seed, i, afterReuse[i], again[i], direct[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestSolverSeriesZeroAllocs pins the allocation contract of the hot
// path: with a warm Solver and caller-provided rows, a whole series
// costs zero allocations per point.
func TestSolverSeriesZeroAllocs(t *testing.T) {
	c := NewChain()
	c.Transition("up", "down", 2e-5)
	c.Transition("down", "up", 1.0/3)
	p0 := c.InitialPoint("up")
	times := []float64{0, 10, 100, 1000, 10000, 100000}
	dst := make([][]float64, len(times))
	for i := range dst {
		dst[i] = make([]float64, c.Len())
	}
	s := NewSolver(c)
	s.TransientSeriesInto(dst, p0, times) // warm the weight buffer
	allocs := testing.AllocsPerRun(10, func() {
		s.TransientSeriesInto(dst, p0, times)
	})
	if allocs != 0 {
		t.Fatalf("TransientSeriesInto allocates %.1f per series, want 0", allocs)
	}
}
