package stats

import (
	"fmt"
	"strings"
)

// Histogram accumulates samples into fixed-width bins over [Lo, Hi).
// Samples outside the range are counted in the under/overflow bins so no
// observation is silently dropped — important when characterizing latency
// distributions whose tails are the finding (Figure 3).
type Histogram struct {
	Lo, Hi    float64
	Bins      []int
	Underflow int
	Overflow  int
	samples   []float64
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics on a non-positive bin count or an empty range.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.samples = append(h.samples, x)
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if idx == len(h.Bins) { // guard against float rounding at the edge
			idx--
		}
		h.Bins[idx]++
	}
}

// Median returns the median of all recorded samples.
func (h *Histogram) Median() float64 { return Median(h.samples) }

// Min and Max return the extreme recorded samples.
func (h *Histogram) Min() float64 { lo, _ := MinMax(h.samples); return lo }
func (h *Histogram) Max() float64 { _, hi := MinMax(h.samples); return hi }

// Render draws the histogram as rows of '#' marks, width columns at the
// fullest bin, for the text reports the cmd tools emit.
func (h *Histogram) Render(width int, unit string) string {
	if width <= 0 {
		width = 50
	}
	max := 0
	for _, c := range h.Bins {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		fmt.Fprintf(&b, "%10.1f-%-10.1f %s |%s %d\n",
			h.Lo+w*float64(i), h.Lo+w*float64(i+1), unit,
			strings.Repeat("#", bar), c)
	}
	if h.Underflow > 0 {
		fmt.Fprintf(&b, "%21s |%d below range\n", "", h.Underflow)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "%21s |%d above range\n", "", h.Overflow)
	}
	return b.String()
}
