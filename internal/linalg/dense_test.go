package linalg

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %g, want 7", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("zero value not zero")
	}
}

func TestDenseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestNewDenseFromRowsAndClone(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
	if c.At(1, 1) != 4 {
		t.Fatal("Clone did not copy data")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d, %d)", i, j)
			}
		}
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.MulVec([]float64{1, 1})
	want := []float64{3, 7, 11}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	z := m.VecMul([]float64{1, 0, 2})
	wantZ := []float64{11, 14}
	for i := range wantZ {
		if z[i] != wantZ[i] {
			t.Fatalf("VecMul[%d] = %g, want %g", i, z[i], wantZ[i])
		}
	}
}

func TestMatMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestIdentityMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{2, -1, 0}, {1, 3, 4}, {0, 0, 1}})
	i3 := Identity(3)
	left := i3.Mul(a)
	right := a.Mul(i3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if left.At(i, j) != a.At(i, j) || right.At(i, j) != a.At(i, j) {
				t.Fatal("identity multiplication changed matrix")
			}
		}
	}
}

func TestScaleAddMatMaxAbs(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, -2}, {3, -4}})
	a.Scale(2)
	if a.At(1, 1) != -8 {
		t.Fatalf("Scale: got %g", a.At(1, 1))
	}
	a.AddMat(NewDenseFromRows([][]float64{{1, 1}, {1, 1}}))
	if a.At(0, 0) != 3 {
		t.Fatalf("AddMat: got %g", a.At(0, 0))
	}
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %g, want 7", a.MaxAbs())
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, -2, 3}
	b := []float64{4, 5, -6}
	if Dot(a, b) != 1*4-2*5-3*6 {
		t.Fatalf("Dot = %g", Dot(a, b))
	}
	if Sum(a) != 2 {
		t.Fatalf("Sum = %g", Sum(a))
	}
	if Norm1(a) != 6 {
		t.Fatalf("Norm1 = %g", Norm1(a))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2")
	}
	if NormInf(a) != 3 {
		t.Fatalf("NormInf = %g", NormInf(a))
	}
	y := CloneVec(a)
	AXPY(2, b, y)
	if y[0] != 9 || y[1] != 8 || y[2] != -9 {
		t.Fatalf("AXPY = %v", y)
	}
	v := []float64{2, 6}
	if s := Normalize(v); s != 8 || !almostEq(v[0], 0.25, 1e-15) {
		t.Fatalf("Normalize: sum=%g v=%v", s, v)
	}
	zero := []float64{0, 0}
	if s := Normalize(zero); s != 0 || zero[0] != 0 {
		t.Fatal("Normalize of zero vector must be a no-op")
	}
	if MaxDiff([]float64{1, 2}, []float64{1.5, 1}) != 1 {
		t.Fatal("MaxDiff")
	}
}

// Property: (A·B)·x == A·(B·x).
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(uint64(seed))
		n := 2 + int(uint(seed)%5)
		a := randomDense(rng, n, n)
		b := randomDense(rng, n, n)
		x := randomVec(rng, n)
		lhs := a.Mul(b).MulVec(x)
		rhs := a.MulVec(b.MulVec(x))
		return MaxDiff(lhs, rhs) < 1e-9*(1+NormInf(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: VecMul(x, m) == Transpose(m).MulVec(x).
func TestVecMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(uint64(seed))
		r := 1 + int(uint(seed)%4)
		c := 1 + int(uint(seed)%6)
		m := randomDense(rng, r, c)
		x := randomVec(rng, r)
		return MaxDiff(m.VecMul(x), m.Transpose().MulVec(x)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Minimal deterministic test RNG local to the package tests (keeps linalg
// free of internal dependencies).
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed*2862933555777941757 + 3037000493} }

func (r *testRNG) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / (1 << 53)
}

func randomDense(r *testRNG, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, 2*r.next()-1)
		}
	}
	return m
}

func randomVec(r *testRNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.next() - 1
	}
	return v
}

// NewDenseFromRows builds a matrix from row slices, which must be non-empty
// and of equal length. The data is copied.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: NewDenseFromRows requires non-empty input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: ragged rows in NewDenseFromRows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Add accumulates v into the element at (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// MulVec computes y = m·x. It panics on dimension mismatch.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// VecMul computes y = xᵀ·m (a row vector times the matrix), returning a
// vector of length Cols. This is the natural orientation for probability
// vectors, which are rows by convention.
func (m *Dense) VecMul(x []float64) []float64 {
	if len(x) != m.rows {
		panic("linalg: VecMul dimension mismatch")
	}
	y := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

// Mul returns the matrix product m·other.
func (m *Dense) Mul(other *Dense) *Dense {
	if m.cols != other.rows {
		panic("linalg: Mul dimension mismatch")
	}
	out := NewDense(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.Row(i)
		orow := out.Row(i)
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			krow := other.Row(k)
			for j, kv := range krow {
				orow[j] += mv * kv
			}
		}
	}
	return out
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMat accumulates other into m element-wise, in place, and returns m.
func (m *Dense) AddMat(other *Dense) *Dense {
	if m.rows != other.rows || m.cols != other.cols {
		panic("linalg: AddMat dimension mismatch")
	}
	for i := range m.data {
		m.data[i] += other.data[i]
	}
	return m
}

// MaxAbs returns the largest absolute element value (the max norm).
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		fmt.Fprintf(&b, "%v\n", m.Row(i))
	}
	return b.String()
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm1 returns the l1 norm of v.
func Norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns the max norm of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
