package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram accumulates observations into fixed-width bins over [Min,
// Max); underflow and overflow are tracked separately. It renders as an
// ASCII bar chart for CLI reports (e.g. drasim's time-to-failure
// distribution).
type Histogram struct {
	Min, Max float64
	bins     []int
	under    int
	over     int
	total    int
	sum      float64
}

// NewHistogram creates a histogram with the given bin count over [min,
// max). It panics on a degenerate range or bin count.
func NewHistogram(min, max float64, bins int) *Histogram {
	if !(max > min) || bins < 1 {
		panic("stats: histogram needs max > min and bins ≥ 1")
	}
	return &Histogram{Min: min, Max: max, bins: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	h.sum += x
	switch {
	case x < h.Min:
		h.under++
	case x >= h.Max:
		h.over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.bins)))
		if i >= len(h.bins) {
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// String renders the histogram with proportional bars.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 1
	for _, c := range h.bins {
		if c > maxCount {
			maxCount = c
		}
	}
	width := (h.Max - h.Min) / float64(len(h.bins))
	const barMax = 40
	for i, c := range h.bins {
		lo := h.Min + float64(i)*width
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(maxCount)*barMax)))
		fmt.Fprintf(&b, "%12.4g–%-12.4g %6d |%s\n", lo, lo+width, c, bar)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "(underflow %d, overflow %d)\n", h.under, h.over)
	}
	return b.String()
}
