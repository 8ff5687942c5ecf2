package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-longer", F("%.2f", 3.14159))
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "beta-longer", "3.14"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Columns align: every row has the same rendered width.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableHandlesRaggedRows(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1", "2", "3")
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Errorf("extra cells dropped:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", `with,comma`)
	tb.AddRow(`quote"inside`, "z")
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quote""inside"`) {
		t.Errorf("quote cell not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("missing header row: %s", csv)
	}
}

func TestPlotRendersSeries(t *testing.T) {
	p := &Plot{Title: "bw", XLabel: "GHz", YLabel: "GB/s"}
	p.Add("hsw", []float64{1, 2, 3}, []float64{10, 20, 30})
	p.Add("snb", []float64{1, 2, 3}, []float64{5, 10, 15})
	out := p.String()
	for _, want := range []string{"bw", "GHz", "GB/s", "hsw", "snb", "*", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	p := &Plot{Title: "empty"}
	if !strings.Contains(p.String(), "no data") {
		t.Error("empty plot should say so")
	}
	p2 := &Plot{Title: "point"}
	p2.Add("s", []float64{1}, []float64{1})
	if p2.String() == "" {
		t.Error("single-point plot must render")
	}
}

func TestHeatmap(t *testing.T) {
	h := &Heatmap{
		Title:   "bw",
		XLabel:  "freq ->",
		YLabels: []string{"1", "12"},
		Values:  [][]float64{{1, 2, 3}, {10, 20, 30}},
	}
	out := h.String()
	if !strings.Contains(out, "bw") || !strings.Contains(out, "scale:") {
		t.Fatalf("heatmap render broken:\n%s", out)
	}
	// Max value renders at full intensity.
	if !strings.Contains(out, "@@") {
		t.Errorf("no full-intensity cell:\n%s", out)
	}
	// Empty and flat maps don't crash.
	if !strings.Contains((&Heatmap{Title: "e"}).String(), "no data") {
		t.Error("empty heatmap should say so")
	}
	flat := &Heatmap{Values: [][]float64{{5, 5}}, YLabels: []string{"x"}}
	if flat.String() == "" {
		t.Error("flat heatmap must render")
	}
}
