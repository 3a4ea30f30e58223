package markov

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestSampleTimeToAbsorptionMatchesMTTA(t *testing.T) {
	c := NewChain()
	lam := 0.01
	c.Transition("a", "b", lam)
	c.Transition("b", "c", lam)
	mtta, err := c.MeanTimeToAbsorption("a", func(l string) bool { return l == "c" })
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	const n = 20000
	sum := 0.0
	absorbed := 0
	for i := 0; i < n; i++ {
		v, ok := c.SampleTimeToAbsorption("a", func(l string) bool { return l == "c" }, 1e9, rng)
		if ok {
			absorbed++
			sum += v
		}
	}
	if absorbed != n {
		t.Fatalf("only %d/%d runs absorbed", absorbed, n)
	}
	mean := sum / n
	// Erlang(2) has std = sqrt(2)/λ; 4σ band on the sample mean.
	tol := 4 * math.Sqrt2 / lam / math.Sqrt(n)
	if math.Abs(mean-mtta) > tol {
		t.Fatalf("simulated MTTA %g vs analytic %g (tol %g)", mean, mtta, tol)
	}
}

func TestSampleTimeToAbsorptionHorizon(t *testing.T) {
	c := NewChain()
	c.Transition("a", "b", 1e-9)
	rng := xrand.New(1)
	v, ok := c.SampleTimeToAbsorption("a", func(l string) bool { return l == "b" }, 10, rng)
	if ok {
		t.Fatal("absorption should be censored by the horizon almost surely")
	}
	if v != 10 {
		t.Fatalf("censored value = %g, want horizon", v)
	}
}

func TestSampleMatchesTransientCDF(t *testing.T) {
	// Empirical P(absorbed by t) must match 1 - reliability from the
	// transient solver.
	c := NewChain()
	c.Transition("up", "mid", 0.002)
	c.Transition("mid", "down", 0.004)
	c.Transition("up", "down", 0.0005)
	isDown := func(l string) bool { return l == "down" }
	const horizon = 800.0
	dist := c.TransientAt(c.InitialPoint("up"), horizon)
	want := dist[c.mustIndex("down")]

	rng := xrand.New(5)
	const n = 30000
	hit := 0
	for i := 0; i < n; i++ {
		if _, ok := c.SampleTimeToAbsorption("up", isDown, horizon, rng); ok {
			hit++
		}
	}
	got := float64(hit) / n
	se := math.Sqrt(want * (1 - want) / n)
	if math.Abs(got-want) > 5*se+1e-4 {
		t.Fatalf("empirical absorption %g vs analytic %g (se %g)", got, want, se)
	}
}

func (c *Chain) mustIndex(label string) int {
	i, ok := c.Lookup(label)
	if !ok {
		panic("missing state " + label)
	}
	return i
}

func BenchmarkTransientUniformization(b *testing.B) {
	c := NewChain()
	c.Transition("ok", "fail", 2e-5)
	c.Transition("fail", "ok", 1.0/3)
	p0 := c.InitialPoint("ok")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.TransientAt(p0, 40000)
	}
}
