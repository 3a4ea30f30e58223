package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U, where L is
// unit lower triangular and U upper triangular, both packed into lu.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. The input is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows() != a.Cols() {
		panic("linalg: FactorLU requires a square matrix")
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve returns x with A·x = b for the factored A. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// SolveLinear is a convenience wrapper factoring a and solving a·x = b.
func SolveLinear(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
