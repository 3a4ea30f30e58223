package markov

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestChainBuild(t *testing.T) {
	c := NewChain()
	c.Transition("up", "down", 2)
	c.Transition("down", "up", 3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	q := c.DenseGenerator()
	if q.At(0, 1) != 2 || q.At(1, 0) != 3 {
		t.Fatal("off-diagonal rates wrong")
	}
	if q.At(0, 0) != -2 || q.At(1, 1) != -3 {
		t.Fatal("diagonal not negated row sum")
	}
	if c.ExitRate(0) != 2 || c.MaxExitRate() != 3 {
		t.Fatal("exit rates wrong")
	}
}

func TestChainDuplicateTransitionsSum(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1)
	c.Transition("a", "b", 2.5)
	q := c.DenseGenerator()
	if q.At(0, 1) != 3.5 || q.At(0, 0) != -3.5 {
		t.Fatalf("duplicate rates not summed: %v", q)
	}
}

func TestChainZeroRateIgnored(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1)
	c.Transition("a", "c", 0)
	if _, ok := c.Lookup("c"); ok {
		t.Fatal("zero-rate transition created a state")
	}
}

func TestChainPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative rate": func() { NewChain().Transition("a", "b", -1) },
		"self loop":     func() { NewChain().Transition("a", "a", 1) },
		"frozen add": func() {
			c := NewChain()
			c.Transition("a", "b", 1)
			c.Generator()
			c.Transition("b", "c", 1)
		},
		"unknown initial": func() { NewChain().InitialPoint("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInitialPointAndProbabilityOf(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1)
	c.Transition("b", "c", 1)
	p := c.InitialPoint("b")
	if p[0] != 0 || p[1] != 1 {
		t.Fatalf("InitialPoint = %v", p)
	}
	got := c.ProbabilityOf([]float64{0.2, 0.3, 0.5}, func(l string) bool { return l != "c" })
	if !feq(got, 0.5, 1e-15) {
		t.Fatalf("ProbabilityOf = %g", got)
	}
}

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSteadyStateTwoState(t *testing.T) {
	c := NewChain()
	c.Transition("up", "down", 2e-5)
	c.Transition("down", "up", 1.0/3)
	pi := c.SteadyState()
	want := (1.0 / 3) / (2e-5 + 1.0/3)
	if !feq(pi[0], want, 1e-12) {
		t.Fatalf("pi = %v, want up=%g", pi, want)
	}
}

func TestTransientPureDeath(t *testing.T) {
	// Single exponential decay: P(alive at t) = exp(-λt).
	c := NewChain()
	lambda := 2e-5
	c.Transition("up", "down", lambda)
	for _, tt := range []float64{0, 100, 10000, 40000, 100000} {
		dist := c.TransientAt(c.InitialPoint("up"), tt)
		want := math.Exp(-lambda * tt)
		if !feq(dist[0], want, 1e-9) {
			t.Fatalf("t=%g: P(up) = %.12f, want %.12f", tt, dist[0], want)
		}
	}
}

func TestTransientErlangTwoStage(t *testing.T) {
	// Two-stage path a->b->c with equal rates: P(c at t) for Erlang(2, λ)
	// is 1 - e^{-λt}(1 + λt).
	c := NewChain()
	lam := 0.001
	c.Transition("a", "b", lam)
	c.Transition("b", "c", lam)
	for _, tt := range []float64{50, 500, 5000} {
		dist := c.TransientAt(c.InitialPoint("a"), tt)
		want := 1 - math.Exp(-lam*tt)*(1+lam*tt)
		if !feq(dist[2], want, 1e-9) {
			t.Fatalf("t=%g: P(c) = %.12f, want %.12f", tt, dist[2], want)
		}
	}
}

func TestTransientMatchesRK45(t *testing.T) {
	// A loop with heterogeneous rates; the two independent solvers must
	// agree.
	c := NewChain()
	c.Transition("a", "b", 0.7)
	c.Transition("b", "c", 0.1)
	c.Transition("c", "a", 2.0)
	c.Transition("b", "a", 0.05)
	p0 := c.InitialPoint("a")
	for _, tt := range []float64{0.5, 3, 20} {
		uni := c.TransientAt(p0, tt)
		rk := c.TransientRK45(p0, tt, 1e-11)
		if linalg.MaxDiff(uni, rk) > 1e-7 {
			t.Fatalf("t=%g: uniformization %v vs RK45 %v", tt, uni, rk)
		}
	}
}

func TestTransientLongHorizonStiff(t *testing.T) {
	// Rates spanning 5+ orders of magnitude over a 1e5-hour horizon — the
	// regime of the paper's availability chains. Uniformization must agree
	// with the analytical steady state at large t.
	c := NewChain()
	c.Transition("ok", "fail", 2e-5)
	c.Transition("fail", "ok", 1.0/3)
	p := c.TransientAt(c.InitialPoint("ok"), 1e6)
	pi := c.SteadyState()
	if linalg.MaxDiff(p, pi) > 1e-9 {
		t.Fatalf("transient at large t %v != steady state %v", p, pi)
	}
}

func TestTransientConservation(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1)
	c.Transition("b", "c", 2)
	c.Transition("c", "a", 3)
	for _, tt := range []float64{0.1, 1, 10, 100} {
		dist := c.TransientAt(c.InitialPoint("a"), tt)
		if !feq(linalg.Sum(dist), 1, 1e-12) {
			t.Fatalf("t=%g: mass = %.15f", tt, linalg.Sum(dist))
		}
		for _, p := range dist {
			if p < -1e-15 {
				t.Fatalf("negative probability %g", p)
			}
		}
	}
}

func TestTransientSeriesMonotoneReliability(t *testing.T) {
	// For a pure failure chain (no repair), P(operational) must be
	// non-increasing in t.
	c := NewChain()
	c.Transition("up", "deg", 1e-4)
	c.Transition("deg", "down", 5e-4)
	times := []float64{0, 10, 100, 1000, 5000, 20000, 100000}
	dists := c.TransientSeries(c.InitialPoint("up"), times)
	prev := 1.1
	for i, d := range dists {
		r := d[0] + d[1]
		if r > prev+1e-12 {
			t.Fatalf("reliability increased at point %d: %g > %g", i, r, prev)
		}
		prev = r
	}
}

func TestTransientSeriesRejectsDecreasingTimes(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.TransientSeries(c.InitialPoint("a"), []float64{5, 1})
}

func TestMeanTimeToAbsorption(t *testing.T) {
	// Erlang(2, λ): MTTA = 2/λ.
	c := NewChain()
	lam := 0.01
	c.Transition("a", "b", lam)
	c.Transition("b", "c", lam)
	mtta, err := c.MeanTimeToAbsorption("a", func(l string) bool { return l == "c" })
	if err != nil {
		t.Fatal(err)
	}
	if !feq(mtta, 2/lam, 1e-8) {
		t.Fatalf("MTTA = %g, want %g", mtta, 2/lam)
	}
	// From an absorbing start, MTTA is zero.
	zero, err := c.MeanTimeToAbsorption("c", func(l string) bool { return l == "c" })
	if err != nil || zero != 0 {
		t.Fatalf("MTTA from absorbing = %g, err %v", zero, err)
	}
}

func TestMeanTimeToAbsorptionWithBranching(t *testing.T) {
	// up -> F at rate a; up -> deg at rate b; deg -> F at rate d.
	// MTTA(up) = 1/(a+b) + (b/(a+b))·(1/d).
	c := NewChain()
	a, b, d := 0.002, 0.001, 0.01
	c.Transition("up", "F", a)
	c.Transition("up", "deg", b)
	c.Transition("deg", "F", d)
	mtta, err := c.MeanTimeToAbsorption("up", func(l string) bool { return l == "F" })
	if err != nil {
		t.Fatal(err)
	}
	want := 1/(a+b) + (b/(a+b))*(1/d)
	if !feq(mtta, want, 1e-8) {
		t.Fatalf("MTTA = %g, want %g", mtta, want)
	}
}

// ExitRate returns the total departure rate of state i (the negated
// diagonal of Q). The value is memoized when the generator is first
// built; subsequent calls are O(1) and allocation-free.
func (c *Chain) ExitRate(i int) float64 {
	c.Generator()
	return c.exit[i]
}
