package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 4.5, 9.99, -1, 10, 42} {
		h.Add(x)
	}
	if h.N() != 8 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Bin(0) != 2 || h.Bin(1) != 1 || h.Bin(2) != 1 || h.Bin(4) != 1 {
		t.Fatalf("bins = %d %d %d %d %d", h.Bin(0), h.Bin(1), h.Bin(2), h.Bin(3), h.Bin(4))
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Fatalf("under=%d over=%d", under, over)
	}
}

func TestHistogramMeanAndRender(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(3)
	if h.Mean() != 2 {
		t.Fatalf("Mean = %g", h.Mean())
	}
	out := h.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "1 |") {
		t.Fatalf("render:\n%s", out)
	}
	// Out-of-range note appears only when needed.
	if strings.Contains(out, "underflow") {
		t.Fatal("spurious out-of-range note")
	}
	h.Add(-5)
	if !strings.Contains(h.String(), "underflow 1") {
		t.Fatal("missing out-of-range note")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	if h.Mean() != 0 || h.N() != 0 {
		t.Fatal("empty histogram stats")
	}
	_ = h.String() // must not panic
}

func TestHistogramValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(1, 1, 3) },
		func() { NewHistogram(0, 1, 0) },
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

// N returns the number of observations.
func (h *Histogram) N() int { return h.total }

// Mean returns the running mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Bin returns the count of bin i.
func (h *Histogram) Bin(i int) int { return h.bins[i] }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int) { return h.under, h.over }
