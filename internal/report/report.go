// Package report renders experiment results as aligned text tables,
// simple ASCII line plots and CSV — the output layer of the cmd tools
// that regenerate the paper's tables and figures.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// F is a cell-formatting shorthand for AddRow call sites.
func F(format string, v ...any) string { return fmt.Sprintf(format, v...) }

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i == 0 {
				fmt.Fprintf(w, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(w, "  %*s", width[i], c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := 0
	for _, wd := range width {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (quoting commas).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is one named line of (x, y) points for plotting.
type Series struct {
	Name string
	X, Y []float64
}

// Plot renders one or more series as an ASCII scatter/line chart.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	H      int // rows; 0 = 20
}

// Add appends a series.
func (p *Plot) Add(name string, xs, ys []float64) {
	p.Series = append(p.Series, Series{Name: name, X: xs, Y: ys})
}

// markers for up to 8 series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// plotWidth is the width of a rendered plot, in columns.
const plotWidth = 64

// String renders the plot.
func (p *Plot) String() string {
	w, h := plotWidth, p.H
	if h <= 0 {
		h = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return p.Title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range p.Series {
		mk := markers[si%len(markers)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(w-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(h-1))
			grid[h-1-cy][cx] = mk
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	fmt.Fprintf(&b, "%s\n", p.YLabel)
	fmt.Fprintf(&b, "%10.2f |%s|\n", maxY, strings.Repeat("-", w))
	for r := 0; r < h; r++ {
		label := "          "
		if r == h-1 {
			label = fmt.Sprintf("%10.2f", minY)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%10s  %-10.2f%*s%10.2f  (%s)\n", "", minX, w-20, "", maxX, p.XLabel)
	for si, s := range p.Series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Heatmap renders a 2D value grid as intensity characters — the text
// form of the Figure 8 bandwidth surfaces.
type Heatmap struct {
	Title   string
	XLabel  string
	YLabels []string
	Values  [][]float64 // rows correspond to YLabels
}

var intensity = []byte(" .:-=+*#%@")

// String renders the heatmap with a per-map linear intensity scale.
func (h *Heatmap) String() string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range h.Values {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	if math.IsInf(lo, 1) {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if hi == lo {
		hi = lo + 1
	}
	width := 0
	for _, l := range h.YLabels {
		if len(l) > width {
			width = len(l)
		}
	}
	for r, row := range h.Values {
		label := ""
		if r < len(h.YLabels) {
			label = h.YLabels[r]
		}
		fmt.Fprintf(&b, "%*s |", width, label)
		for _, v := range row {
			idx := int((v - lo) / (hi - lo) * float64(len(intensity)-1))
			b.WriteByte(intensity[idx])
			b.WriteByte(intensity[idx]) // double width for aspect ratio
		}
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%*s  %s   scale: %.1f (' ') .. %.1f ('@')\n", width, "", h.XLabel, lo, hi)
	return b.String()
}
