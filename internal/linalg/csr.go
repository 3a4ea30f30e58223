package linalg

import "sort"

// Triplet is one entry of a sparse matrix under construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. It is immutable after construction.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries are
// summed. Entries that sum to exactly zero are retained (harmless) unless
// dropZero is requested via NewCSRCompact.
func NewCSR(rows, cols int, entries []Triplet) *CSR {
	return newCSR(rows, cols, entries, false)
}

func newCSR(rows, cols int, entries []Triplet, dropZero bool) *CSR {
	if rows <= 0 || cols <= 0 {
		panic("linalg: invalid CSR dimensions")
	}
	es := make([]Triplet, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Row != es[j].Row {
			return es[i].Row < es[j].Row
		}
		return es[i].Col < es[j].Col
	})
	// Merge duplicates.
	merged := es[:0]
	for _, e := range es {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic("linalg: CSR triplet out of range")
		}
		if n := len(merged); n > 0 && merged[n-1].Row == e.Row && merged[n-1].Col == e.Col {
			merged[n-1].Val += e.Val
		} else {
			merged = append(merged, e)
		}
	}
	if dropZero {
		kept := merged[:0]
		for _, e := range merged {
			if e.Val != 0 {
				kept = append(kept, e)
			}
		}
		merged = kept
	}
	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, len(merged)),
		vals:   make([]float64, len(merged)),
	}
	for i, e := range merged {
		m.rowPtr[e.Row+1]++
		m.colIdx[i] = e.Col
		m.vals[i] = e.Val
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the element at (i, j), zero if not stored. It is O(log nnz(i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic("linalg: CSR index out of range")
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// VecMulTo computes y = xᵀ·m into a caller-provided slice. This is the
// probability-vector orientation used by uniformization.
func (m *CSR) VecMulTo(y, x []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic("linalg: CSR VecMulTo dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.vals[k]
		}
	}
}

// ScaleAddIdentity returns I + alpha·m as a new CSR matrix, built in a
// single O(nnz + n) pass over the CSR arrays — no dense round-trip, no
// triplet sort. Rows without a stored diagonal entry (e.g. absorbing
// states of a generator matrix) get one. The matrix must be square.
// This is the uniformization primitive: P = I + Q/Λ is
// q.ScaleAddIdentity(1/Λ).
func (m *CSR) ScaleAddIdentity(alpha float64) *CSR {
	if m.rows != m.cols {
		panic("linalg: ScaleAddIdentity needs a square matrix")
	}
	n := m.rows
	out := &CSR{rows: n, cols: n, rowPtr: make([]int, n+1)}
	nnz := 0
	for i := 0; i < n; i++ {
		cnt := m.rowPtr[i+1] - m.rowPtr[i]
		hasDiag := false
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if m.colIdx[k] == i {
				hasDiag = true
				break
			}
		}
		if !hasDiag {
			cnt++
		}
		nnz += cnt
		out.rowPtr[i+1] = nnz
	}
	out.colIdx = make([]int, nnz)
	out.vals = make([]float64, nnz)
	for i := 0; i < n; i++ {
		w := out.rowPtr[i]
		wroteDiag := false
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c, v := m.colIdx[k], alpha*m.vals[k]
			switch {
			case c == i:
				v++
				wroteDiag = true
			case !wroteDiag && c > i:
				// The diagonal slot comes before this column; insert it.
				out.colIdx[w], out.vals[w] = i, 1
				w++
				wroteDiag = true
			}
			out.colIdx[w], out.vals[w] = c, v
			w++
		}
		if !wroteDiag {
			out.colIdx[w], out.vals[w] = i, 1
			w++
		}
	}
	return out
}

// Dense expands the matrix to dense form (for tests and small systems).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}
