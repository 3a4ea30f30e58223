// Package linalg provides the dense and sparse linear algebra needed by the
// Markov-chain engine: vectors, row-major dense matrices, LU factorization
// with partial pivoting, the numerically stable Grassmann–Taksar–Heyman
// (GTH) elimination for CTMC steady-state vectors, and a compressed sparse
// row format for fast transposed mat-vec products during uniformization.
//
// Everything is implemented from scratch on float64; there are no external
// dependencies.
package linalg

import (
	"fmt"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix. It panics if either dimension
// is non-positive.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dense dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d, %d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("linalg: row index out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}
