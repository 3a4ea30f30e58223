package stats

import (
	"math"
	"testing"
)

func TestLogSumClosedForm(t *testing.T) {
	// log(1 + 2 + 3 + 4) computed from log-domain inputs.
	var s LogSum
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(math.Log(v))
	}
	if got, want := s.Log(), math.Log(10); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Log() = %v, want %v", got, want)
	}
	if got, want := s.LogMean(), math.Log(2.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LogMean() = %v, want %v", got, want)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestLogSumFarBelowUnderflow(t *testing.T) {
	// exp(-2000) underflows float64 entirely; the log-domain sum must
	// still resolve log(3·exp(-2000)) = -2000 + log 3.
	var s LogSum
	s.Add(-2000)
	s.Add(-2000)
	s.Add(-2000)
	if got, want := s.Log(), -2000+math.Log(3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Log() = %v, want %v", got, want)
	}
}

func TestLogSumOrderInvariance(t *testing.T) {
	// Ascending and descending insertion must agree (exercises the
	// running-maximum rescale branch both ways).
	vals := []float64{-700, -1, -350, 2, -699.5}
	var a, b LogSum
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	if math.Abs(a.Log()-b.Log()) > 1e-12 {
		t.Fatalf("order dependent: %v vs %v", a.Log(), b.Log())
	}
}

func TestLogSumEmpty(t *testing.T) {
	var s LogSum
	if !math.IsInf(s.Log(), -1) || !math.IsInf(s.LogMean(), -1) {
		t.Fatal("empty LogSum must be -Inf")
	}
}

func TestLogWeightsExtremesAndESS(t *testing.T) {
	var w LogWeights
	for _, l := range []float64{-2, 0, -5, -1} {
		w.Add(l)
	}
	if w.Max != 0 || w.Min != -5 {
		t.Fatalf("extremes [%v, %v]", w.Min, w.Max)
	}
	// Closed form: ESS = (Σw)²/Σw².
	sum, sumSq := 0.0, 0.0
	for _, l := range []float64{-2, 0, -5, -1} {
		sum += math.Exp(l)
		sumSq += math.Exp(2 * l)
	}
	if got, want := w.ESS(), sum*sum/sumSq; math.Abs(got-want) > 1e-9 {
		t.Fatalf("ESS = %v, want %v", got, want)
	}
	// Equal weights: ESS = n.
	var eq LogWeights
	for i := 0; i < 7; i++ {
		eq.Add(-3)
	}
	if got := eq.ESS(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("equal-weight ESS = %v, want 7", got)
	}
}

func TestRatioClosedForm(t *testing.T) {
	// Pairs with exactly computable moments.
	var r Ratio
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 2, 4, 4}
	for i := range xs {
		r.Add(xs[i], ys[i])
	}
	if got, want := r.Estimate(), 2.5/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate %v want %v", got, want)
	}
	// Delta method by hand: sxx = 5/3, syy = 4/3, sxy = 4/3, R = 5/6.
	sxx, syy, sxy, R := 5.0/3, 4.0/3, 4.0/3, 2.5/3.0
	want := (sxx - 2*R*sxy + R*R*syy) / (4 * 3 * 3)
	if got := r.Variance(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance %v want %v", got, want)
	}
	lo, hi := r.CI(1.96)
	if lo >= hi || hi-lo > 2*1.96*math.Sqrt(want)+1e-12 {
		t.Fatalf("CI [%v, %v]", lo, hi)
	}
}

func TestRatioConstantDenominator(t *testing.T) {
	// With y ≡ c the ratio reduces to a scaled mean and the delta-method
	// variance to Var(x̄)/c².
	var r Ratio
	var w Welford
	for _, x := range []float64{3, 1, 4, 1, 5, 9} {
		r.Add(x, 2)
		w.Add(x)
	}
	if got, want := r.Estimate(), w.Mean()/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("estimate %v want %v", got, want)
	}
	wantVar := w.Variance() / float64(w.N()) / 4
	if got := r.Variance(); math.Abs(got-wantVar) > 1e-12 {
		t.Fatalf("variance %v want %v", got, wantVar)
	}
}

func TestRatioDegenerate(t *testing.T) {
	var r Ratio
	if r.Estimate() != 0 || r.Variance() != 0 {
		t.Fatal("empty ratio must be 0")
	}
	if !math.IsInf(r.RelHalfWidth(1.96), 1) {
		t.Fatal("empty ratio RelHalfWidth must be +Inf")
	}
	r.Add(0, 5) // zero numerator observed
	r.Add(0, 7)
	if r.Estimate() != 0 {
		t.Fatal("zero-mass estimate must be 0")
	}
	if !math.IsInf(r.RelHalfWidth(1.96), 1) {
		t.Fatal("zero estimate must keep the stopping rule running")
	}
}

func TestWelfordRelHalfWidth(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(3)
	want := 1.96 * w.StdErr() / 2.0
	if got := w.RelHalfWidth(1.96); math.Abs(got-want) > 1e-12 {
		t.Fatalf("rel half-width %v want %v", got, want)
	}
	var zero Welford
	if !math.IsInf(zero.RelHalfWidth(1.96), 1) {
		t.Fatal("zero-mean Welford must report +Inf relative error")
	}
}

// LogMean returns log((1/n)·Σ exp(l_i)); -Inf with no observations.
func (s *LogSum) LogMean() float64 {
	if s.n == 0 {
		return math.Inf(-1)
	}
	return s.Log() - math.Log(float64(s.n))
}

// N returns the number of pairs.
func (r *Ratio) N() int { return r.n }
