package linalg

import (
	"testing"
	"testing/quick"
)

func TestCSRBasics(t *testing.T) {
	m := NewCSR(3, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5},
	})
	if m.Rows() != 3 || m.Cols() != 3 || m.NNZ() != 5 {
		t.Fatalf("dims/nnz wrong: %dx%d nnz=%d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.At(0, 2) != 2 || m.At(2, 2) != 5 || m.At(1, 0) != 0 {
		t.Fatal("At returned wrong values")
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, 2, []Triplet{{0, 1, 1.5}, {0, 1, 2.5}})
	if m.At(0, 1) != 4 {
		t.Fatalf("duplicate sum = %g, want 4", m.At(0, 1))
	}
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
}

func TestCSRCompactDropsZeros(t *testing.T) {
	m := NewCSRCompact(2, 2, []Triplet{{0, 1, 1}, {0, 1, -1}, {1, 0, 2}})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", m.NNZ())
	}
	if m.At(1, 0) != 2 {
		t.Fatal("surviving entry lost")
	}
}

func TestCSRMulVec(t *testing.T) {
	m := NewCSR(2, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	y := m.MulVec([]float64{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestCSRVecMulTo(t *testing.T) {
	m := NewCSR(2, 2, []Triplet{{0, 1, 2}, {1, 0, 3}})
	y := make([]float64, 2)
	m.VecMulTo(y, []float64{1, 1})
	if y[0] != 3 || y[1] != 2 {
		t.Fatalf("VecMulTo = %v", y)
	}
}

func TestCSRScaleAddIdentity(t *testing.T) {
	// Generator-shaped matrix: row 1 has no stored diagonal (absorbing),
	// so the identity entry must be inserted, not just added.
	q := NewCSR(3, 3, []Triplet{
		{0, 0, -4}, {0, 1, 3}, {0, 2, 1},
		{2, 0, 2}, {2, 2, -2},
	})
	p := q.ScaleAddIdentity(0.25)
	want := [3][3]float64{
		{0, 0.75, 0.25},
		{0, 1, 0},
		{0.5, 0, 0.5},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := p.At(i, j); got != want[i][j] {
				t.Fatalf("P[%d,%d] = %g, want %g", i, j, got, want[i][j])
			}
		}
	}
	if p.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6 (3 + inserted diagonal + 2; cancelled diagonal stays stored)", p.NNZ())
	}
	// Original must be untouched.
	if q.At(1, 1) != 0 || q.At(0, 0) != -4 {
		t.Fatal("ScaleAddIdentity mutated its receiver")
	}
}

func TestCSRScaleAddIdentityNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 3, nil).ScaleAddIdentity(1)
}

// Property: ScaleAddIdentity agrees with the dense I + αQ on random
// sparse matrices and keeps columns sorted within each row.
func TestCSRScaleAddIdentityMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(uint64(seed))
		n := 1 + int(uint(seed)%7)
		var trips []Triplet
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.next() < 0.4 {
					trips = append(trips, Triplet{i, j, 2*rng.next() - 1})
				}
			}
		}
		q := NewCSR(n, n, trips)
		alpha := 2*rng.next() - 1
		p := q.ScaleAddIdentity(alpha)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := alpha * q.At(i, j)
				if i == j {
					want++
				}
				if p.At(i, j) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCSROutOfRangeTripletPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCSR(2, 2, []Triplet{{2, 0, 1}})
}

// Property: CSR operations agree with the dense expansion.
func TestCSRMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(uint64(seed))
		rows := 1 + int(uint(seed)%6)
		cols := 1 + int(uint(seed)>>3%6)
		var trips []Triplet
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.next() < 0.4 {
					trips = append(trips, Triplet{i, j, 2*rng.next() - 1})
				}
			}
		}
		m := NewCSR(rows, cols, trips)
		d := m.Dense()
		x := randomVec(rng, cols)
		if MaxDiff(m.MulVec(x), d.MulVec(x)) > 1e-12 {
			return false
		}
		xr := randomVec(rng, rows)
		y := make([]float64, cols)
		m.VecMulTo(y, xr)
		return MaxDiff(y, d.VecMul(xr)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCSRVecMul(b *testing.B) {
	const n = 2000
	var trips []Triplet
	for i := 0; i < n; i++ {
		trips = append(trips, Triplet{i, i, -2})
		if i+1 < n {
			trips = append(trips, Triplet{i, i + 1, 1})
			trips = append(trips, Triplet{i + 1, i, 1})
		}
	}
	m := NewCSR(n, n, trips)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1.0 / n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VecMulTo(y, x)
		x, y = y, x
	}
}

// NewCSRCompact builds a CSR matrix from triplets, dropping entries whose
// accumulated value is exactly zero.
func NewCSRCompact(rows, cols int, entries []Triplet) *CSR {
	return newCSR(rows, cols, entries, true)
}

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// MulVec computes y = m·x.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("linalg: CSR MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = m·x into a caller-provided slice, avoiding
// allocation in inner loops.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("linalg: CSR MulVecTo dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}
