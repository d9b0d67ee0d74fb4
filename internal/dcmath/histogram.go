package dcmath

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width binned histogram over [Lo, Hi). Values
// outside the range are counted in the under/overflow buckets so totals
// always reconcile.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram creates a histogram with bins equal-width bins covering
// [lo, hi). It panics if bins <= 0 or hi <= lo: histogram geometry is a
// programming decision, not runtime input.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("dcmath: NewHistogram with bins <= 0")
	}
	if hi <= lo {
		panic("dcmath: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case math.IsNaN(x):
		h.Underflow++ // NaN is "below everything" for accounting purposes
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Counts) { // guard the x == Hi-epsilon rounding edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including
// under/overflow.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64((float64(i)+0.5)*w)
}

// Fraction returns the fraction of all observations landing in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Render returns a simple fixed-width ASCII rendering, one line per
// bin, suitable for experiment logs.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = c * width / maxC
		}
		fmt.Fprintf(&b, "%10.4g | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	if h.Underflow > 0 {
		fmt.Fprintf(&b, "%10s | %d\n", "under", h.Underflow)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "%10s | %d\n", "over", h.Overflow)
	}
	return b.String()
}
