package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %g", w.Mean())
	}
	// Direct unbiased variance: Σ(x-mean)²/(n-1) = 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", w.Variance(), 32.0/7)
	}
	lo, hi := w.CI(1.96)
	if lo >= w.Mean() || hi <= w.Mean() {
		t.Fatal("CI does not bracket the mean")
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatal("single observation handling")
	}
}

// Property: Welford matches the two-pass algorithm.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		v := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	for i := 0; i < 70; i++ {
		p.Add(true)
	}
	for i := 0; i < 30; i++ {
		p.Add(false)
	}
	if p.Estimate() != 0.7 {
		t.Fatalf("Estimate = %g", p.Estimate())
	}
	lo, hi := p.Wilson(1.96)
	if lo >= 0.7 || hi <= 0.7 || lo < 0.59 || hi > 0.79 {
		t.Fatalf("Wilson = [%g, %g]", lo, hi)
	}
}

func TestProportionEdges(t *testing.T) {
	var p Proportion
	if lo, hi := p.Wilson(1.96); lo != 0 || hi != 1 {
		t.Fatal("empty Wilson should be [0,1]")
	}
	for i := 0; i < 50; i++ {
		p.Add(true)
	}
	lo, hi := p.Wilson(1.96)
	if hi > 1 || lo <= 0.9 {
		t.Fatalf("all-success Wilson = [%g, %g]", lo, hi)
	}
	if p.Estimate() != 1 {
		t.Fatal("all-success estimate")
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 10)
	tw.Set(5, 0)
	tw.Set(8, 4)
	// Over [0,10]: 10·5 + 0·3 + 4·2 = 58 → 5.8.
	if got := tw.Average(10); math.Abs(got-5.8) > 1e-12 {
		t.Fatalf("Average = %g, want 5.8", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Average(5) != 0 {
		t.Fatal("empty average not 0")
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tw.Set(4, 2)
}

func TestNines(t *testing.T) {
	cases := []struct {
		a    float64
		want int
	}{
		{0.5, 0}, {0.9, 1}, {0.95, 1}, {0.99, 2}, {0.999, 3},
		{0.9999, 4}, {0.99995, 4}, {0.999999, 6}, {0.89, 0},
	}
	for _, c := range cases {
		if got := Nines(c.a, 16); got != c.want {
			t.Fatalf("Nines(%v) = %d, want %d", c.a, got, c.want)
		}
	}
	if Nines(1.0, 12) != 12 {
		t.Fatal("Nines(1) should hit the cap")
	}
	if FormatNines(0.9999, 16) != "9^4" {
		t.Fatalf("FormatNines = %q", FormatNines(0.9999, 16))
	}
}

// Property: Nines(a) = n implies 1-10^-n > a-ε and a ≥ 1-10^-n for a in
// [0.9, 1).
func TestNinesBoundsProperty(t *testing.T) {
	f := func(raw uint16) bool {
		a := 0.9 + float64(raw)/65536.0*0.0999999
		n := Nines(a, 16)
		lower := 1 - math.Pow(10, -float64(n))
		upper := 1 - math.Pow(10, -float64(n+1))
		return a >= lower-1e-12 && a < upper+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 || Quantile(xs, 0.5) != 2 {
		t.Fatal("quantiles wrong")
	}
	// Input untouched.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("single-element quantile")
	}
	if got := Quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Fatalf("interpolated quantile = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestWilsonDegenerateZeroFailures pins the k=0 behaviour that motivates
// the rare-event engine: with zero observed failures the Wilson interval
// collapses to [0, z²/(n+z²)] — informative about the *bound* but silent
// about the estimate, which is why crude Monte Carlo cannot resolve the
// 9^7–9^8 band at any feasible number of replications.
func TestWilsonDegenerateZeroFailures(t *testing.T) {
	var p Proportion
	for i := 0; i < 1000; i++ {
		p.Add(false) // k = 0 successes
	}
	lo, hi := p.Wilson(1.96)
	if lo != 0 {
		t.Fatalf("k=0 lower bound = %g, want 0", lo)
	}
	z2 := 1.96 * 1.96
	want := z2 / (1000 + z2)
	if math.Abs(hi-want) > 1e-12 {
		t.Fatalf("k=0 upper bound = %g, want %g", hi, want)
	}
	if p.Estimate() != 0 {
		t.Fatal("k=0 estimate must be 0")
	}
	// And the fully empty case stays the vacuous [0, 1].
	var empty Proportion
	if lo, hi := empty.Wilson(1.96); lo != 0 || hi != 1 {
		t.Fatalf("n=0 Wilson = [%g, %g], want [0, 1]", lo, hi)
	}
}

// TestWelfordCITiny: with fewer than two observations the variance is
// defined as 0, so the CI must collapse onto the mean rather than go NaN.
func TestWelfordCITiny(t *testing.T) {
	var w Welford
	lo, hi := w.CI(1.96)
	if lo != 0 || hi != 0 {
		t.Fatalf("n=0 CI = [%g, %g], want [0, 0]", lo, hi)
	}
	w.Add(42)
	lo, hi = w.CI(1.96)
	if lo != 42 || hi != 42 {
		t.Fatalf("n=1 CI = [%g, %g], want [42, 42]", lo, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatal("CI must never be NaN")
	}
}

// Set records that the signal takes value v from time t onward.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.began = t
	} else {
		if t < tw.lastT {
			panic("stats: time went backwards")
		}
		tw.area += tw.last * (t - tw.lastT)
	}
	tw.last = v
	tw.lastT = t
}

// Average returns the time-weighted average over [begin, t].
func (tw *TimeWeighted) Average(t float64) float64 {
	if !tw.started || t <= tw.began {
		return 0
	}
	area := tw.area + tw.last*(t-tw.lastT)
	return area / (t - tw.began)
}
