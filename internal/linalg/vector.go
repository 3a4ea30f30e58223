package linalg

import "math"

// Sum returns the sum of the elements of v.
func Sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// AXPY computes y += a*x in place. x and y must have equal length.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// Normalize scales v in place so its elements sum to 1 and returns the
// original sum. If the sum is zero the vector is left unchanged.
func Normalize(v []float64) float64 {
	s := Sum(v)
	if s != 0 {
		ScaleVec(1/s, v)
	}
	return s
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// MaxDiff returns the largest absolute element-wise difference between a and
// b, which must have equal length.
func MaxDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MaxDiff length mismatch")
	}
	m := 0.0
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > m {
			m = d
		}
	}
	return m
}
