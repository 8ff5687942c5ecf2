package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hswsim/internal/sim"
)

// exportSections builds a deterministic two-section scene with completed
// spans and open episodes.
func exportSections() []NamedCollector {
	a := NewCollector(8)
	a.Begin(0, SpanCState, 0, 0, "C0")
	a.Begin(1500, SpanCState, 0, 0, "C6")
	a.Add(SpanWake, 0, 1, 2000, 2040, "C6 wake")
	a.Beginf(0, SpanUncore, 0, -1, "%d MHz", 2500)

	b := NewCollector(8)
	b.Add(SpanPState, 1, 3, 0, 500000, "1200 MHz -> 2500 MHz")
	return []NamedCollector{{Name: "fig1#0", C: a}, {Name: "fig5#0", C: b}}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, exportSections()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var phases = map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph]++
	}
	// Completed spans (X), the open episodes (B) and scope metadata (M)
	// must all be present, and nothing else.
	for _, ph := range []string{"X", "B", "M"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events: %v", ph, phases)
		}
	}
	// 3 completed spans total across the sections, 2 open (C6 + uncore).
	if phases["X"] != 3 || phases["B"] != 2 || len(phases) != 3 {
		t.Fatalf("event counts = %v", phases)
	}
	// The wake span: ts in microseconds with ns precision.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == "wake" {
			found = true
			if e.TS != 2.0 || e.Dur != 0.040 {
				t.Fatalf("wake span ts/dur = %v/%v", e.TS, e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("wake span missing from export")
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, exportSections()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, exportSections()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sections produced different Chrome JSON")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty export invalid:\n%s", buf.String())
	}
}

func TestWriteTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, exportSections()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"== fig1#0: 2 spans (0 dropped), 2 open\n",
		"== fig5#0: 1 spans (0 dropped), 0 open\n",
		"C6 wake",
		"(open)",
		"1200 MHz -> 2500 MHz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	var again bytes.Buffer
	if err := WriteTimeline(&again, exportSections()); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("identical sections produced different timelines")
	}

	// An episode opened after the last completed span ends at its own
	// start: the horizon covers open starts, not only completed ends.
	c := NewCollector(8)
	c.Begin(0, SpanCState, 0, 0, "C0")
	c.Begin(100, SpanCState, 0, 0, "C6")
	c.Begin(200, SpanAVX, 0, 0, "avx")
	buf.Reset()
	if err := WriteTimeline(&buf, []NamedCollector{{Name: "late#0", C: c}}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Span{
		{Kind: SpanCState, Socket: 0, CPU: 0, Start: 100, End: 200, Label: "C6"},
		{Kind: SpanAVX, Socket: 0, CPU: 0, Start: 200, End: 200, Label: "avx"},
	} {
		if want := s.String() + " (open)\n"; !strings.Contains(buf.String(), want) {
			t.Errorf("timeline missing %q:\n%s", want, buf.String())
		}
	}
}

func TestMicros(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := micros(sim.Time(c.ns)); got != c.want {
			t.Errorf("micros(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestChromeScopeIDs(t *testing.T) {
	// PIDs must be distinct per (section, socket) and TIDs non-negative
	// even for socket scope (cpu -1).
	if chromePID(0, -1) == chromePID(0, 0) || chromePID(0, 1) == chromePID(1, -1) {
		t.Fatal("pid collision between scopes")
	}
	if chromeTID(-1) != 0 || chromeTID(3) != 4 {
		t.Fatalf("tid mapping = %d/%d", chromeTID(-1), chromeTID(3))
	}
}
