package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLinear(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := FactorLU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorLU(singular) err = %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{3, 0, 0},
		{1, -2, 0},
		{4, 5, 7},
	})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -42, 1e-10) {
		t.Fatalf("Det = %g, want -42", f.Det())
	}
}

func TestLUDetIdentity(t *testing.T) {
	f, err := FactorLU(Identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 1, 1e-14) {
		t.Fatalf("det(I) = %g", f.Det())
	}
}

func TestLUSolveMultipleRHS(t *testing.T) {
	a := NewDenseFromRows([][]float64{{4, 3}, {6, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0}, {0, 1}, {7, -2}} {
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		back := a.MulVec(x)
		if MaxDiff(back, b) > 1e-12 {
			t.Fatalf("residual too large for b=%v: got %v", b, back)
		}
	}
}

// Property: for random diagonally dominant matrices (always nonsingular),
// Solve produces a residual near machine precision.
func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(uint64(seed))
		n := 2 + int(uint(seed)%8)
		a := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1) // dominance
		}
		b := randomVec(rng, n)
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		return MaxDiff(a.MulVec(x), b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLUPivotingHandlesZeroLeadingEntry(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveLinear(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 4, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("x = %v", x)
	}
}

func TestLUIllConditionedStillSolves(t *testing.T) {
	// Rates spanning 6 orders of magnitude, as in the DRA generators.
	a := NewDenseFromRows([][]float64{
		{-1e-6, 1e-6, 0},
		{0.333, -0.333333, 3.33e-7},
		{0, 0.333, -0.333},
	})
	// Perturb to make nonsingular.
	a.Add(2, 2, -1e-3)
	b := []float64{1e-6, 0, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := MaxDiff(a.MulVec(x), b)
	if res > 1e-8 {
		t.Fatalf("residual %g too large", res)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite solution")
		}
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
