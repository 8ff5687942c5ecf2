package trace

import (
	"reflect"
	"strings"
	"testing"

	"hswsim/internal/sim"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Add(SpanWake, 0, 0, 1, 2, "x")       // must not panic
	c.Addf(SpanWake, 0, 0, 1, 2, "x%d", 1) // must not panic
	c.Begin(0, SpanCState, 0, 0, "C6")
	c.Beginf(0, SpanCState, 0, 0, "C%d", 6)
	c.End(1, SpanCState, 0, 0)
	if c.SpanCount() != 0 || c.OpenCount() != 0 || c.SpansRecorded() != 0 ||
		c.SpanDrops() != 0 {
		t.Fatal("nil collector should report zero everywhere")
	}
	if c.Spans() != nil || c.Open(0) != nil {
		t.Fatal("nil collector should return nil slices")
	}
	if c.RenderSpans(1) != "" {
		t.Fatal("nil collector render should be empty")
	}
	if c.Clone() != nil {
		t.Fatal("nil collector should clone to nil")
	}
	if got := c.Query().Count(); got != 0 {
		t.Fatalf("nil collector query count = %d", got)
	}
}

func TestBeginEndPairsSpan(t *testing.T) {
	c := NewCollector(16)
	c.Begin(100, SpanCState, 1, 3, "C6")
	if c.OpenCount() != 1 || c.SpanCount() != 0 {
		t.Fatalf("open=%d count=%d after Begin", c.OpenCount(), c.SpanCount())
	}
	c.End(500, SpanCState, 1, 3)
	sp := c.Spans()
	want := Span{Kind: SpanCState, Socket: 1, CPU: 3, Start: 100, End: 500, Label: "C6"}
	if len(sp) != 1 || sp[0] != want {
		t.Fatalf("spans = %v, want [%v]", sp, want)
	}
	if c.OpenCount() != 0 {
		t.Fatalf("open = %d after End", c.OpenCount())
	}
	if d := sp[0].Duration(); d != 400 {
		t.Fatalf("duration = %v", d)
	}
}

func TestBeginIsEpisodic(t *testing.T) {
	// A Begin on an already-open key closes the previous episode at the
	// new start time: residency tracks transition state-to-state.
	c := NewCollector(16)
	c.Begin(0, SpanCState, 0, 0, "C0")
	c.Begin(100, SpanCState, 0, 0, "C6")
	c.Beginf(250, SpanCState, 0, 0, "C%d", 0)
	sp := c.Spans()
	if len(sp) != 2 {
		t.Fatalf("spans = %v, want 2 closed episodes", sp)
	}
	if sp[0].Label != "C0" || sp[0].Start != 0 || sp[0].End != 100 {
		t.Fatalf("first episode = %v", sp[0])
	}
	if sp[1].Label != "C6" || sp[1].Start != 100 || sp[1].End != 250 {
		t.Fatalf("second episode = %v", sp[1])
	}
	open := c.Open(300)
	if len(open) != 1 || open[0].Label != "C0" || open[0].Start != 250 || open[0].End != 300 {
		t.Fatalf("open = %v", open)
	}
}

func TestEndWithoutBeginIsNoOp(t *testing.T) {
	c := NewCollector(16)
	c.End(10, SpanAVX, 0, 0)
	if c.SpanCount() != 0 || c.SpansRecorded() != 0 {
		t.Fatalf("End without Begin recorded a span: %v", c.Spans())
	}
}

func TestDistinctKeysAreIndependent(t *testing.T) {
	// Episodes are keyed by (kind, socket, cpu): same kind on two cores,
	// or two kinds on one core, never close each other.
	c := NewCollector(16)
	c.Begin(0, SpanCState, 0, 0, "C6")
	c.Begin(0, SpanCState, 0, 1, "C3")
	c.Begin(0, SpanAVX, 0, 0, "avx")
	if c.OpenCount() != 3 || c.SpanCount() != 0 {
		t.Fatalf("open=%d count=%d", c.OpenCount(), c.SpanCount())
	}
	c.End(50, SpanCState, 0, 1)
	sp := c.Spans()
	if len(sp) != 1 || sp[0].CPU != 1 || sp[0].Label != "C3" {
		t.Fatalf("spans = %v", sp)
	}
}

func TestSpanRingDropsOldest(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 6; i++ {
		c.Add(SpanWake, 0, 0, sim.Time(i), sim.Time(i+1), "")
	}
	sp := c.Spans()
	if len(sp) != 4 {
		t.Fatalf("len = %d, want 4", len(sp))
	}
	for i, s := range sp {
		if s.Start != sim.Time(i+2) {
			t.Fatalf("ring out of order: %v", sp)
		}
	}
	if c.SpanCount() != 4 || c.SpansRecorded() != 6 || c.SpanDrops() != 2 {
		t.Fatalf("count=%d recorded=%d drops=%d, want 4/6/2",
			c.SpanCount(), c.SpansRecorded(), c.SpanDrops())
	}
}

func TestOpenSortedAndHorizon(t *testing.T) {
	c := NewCollector(16)
	c.Begin(30, SpanUncore, 1, -1, "2500 MHz")
	c.Begin(10, SpanCState, 0, 2, "C6")
	c.Begin(20, SpanCState, 0, 1, "C3")
	open := c.Open(100)
	if len(open) != 3 {
		t.Fatalf("open = %v", open)
	}
	// Sorted by (kind, socket, cpu) regardless of insertion order.
	if open[0].CPU != 1 || open[1].CPU != 2 || open[2].Kind != SpanUncore {
		t.Fatalf("open order = %v", open)
	}
	for _, s := range open {
		if s.End != 100 {
			t.Fatalf("open span end = %v, want horizon 100", s.End)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	c := NewCollector(8)
	c.Add(SpanWake, 0, 0, 0, 5, "w")
	c.Begin(10, SpanCState, 0, 0, "C6")

	n := c.Clone()
	if !reflect.DeepEqual(c.Spans(), n.Spans()) || !reflect.DeepEqual(c.Open(99), n.Open(99)) {
		t.Fatal("clone should start bitwise-identical")
	}

	// Diverge both sides; neither may see the other's records.
	c.Add(SpanWake, 0, 0, 20, 30, "parent")
	n.End(40, SpanCState, 0, 0)
	if c.SpanCount() != 2 || n.SpanCount() != 2 {
		t.Fatalf("parent=%d clone=%d spans", c.SpanCount(), n.SpanCount())
	}
	if c.Spans()[1].Label != "parent" || n.Spans()[1].Label != "C6" {
		t.Fatalf("cross-contamination: parent=%v clone=%v", c.Spans(), n.Spans())
	}
	if c.OpenCount() != 1 || n.OpenCount() != 0 {
		t.Fatalf("open: parent=%d clone=%d", c.OpenCount(), n.OpenCount())
	}
}

func TestCloneCopiesOnlyUsedRegion(t *testing.T) {
	c := NewCollector(4096)
	for i := 0; i < 3; i++ {
		c.Add(SpanWake, 0, 0, sim.Time(i), sim.Time(i+1), "")
	}
	n := c.Clone()
	// Clone copies the parent's span ring, and must copy only the 3
	// used entries, never the full 4096-slot capacity.
	n.Add(SpanWake, 0, 0, 3, 4, "")
	if got := cap(n.spans); got >= c.cap {
		t.Errorf("post-clone write copied a %d-cap backing; want a right-sized copy of the used region", got)
	}
	if c.SpanCount() != 3 || n.SpanCount() != 4 {
		t.Errorf("SpanCount parent=%d clone=%d, want 3/4", c.SpanCount(), n.SpanCount())
	}
	if sp := c.Spans(); sp[len(sp)-1].Start != 2 {
		t.Errorf("parent saw the clone's span: %v", sp)
	}
	// The other direction is independent too: a parent write must not
	// reach an already-forked clone.
	n2 := c.Clone()
	c.Add(SpanWake, 0, 0, 9, 10, "")
	if n2.SpanCount() != 3 {
		t.Errorf("clone SpanCount = %d after parent write, want 3", n2.SpanCount())
	}
}

func TestCloneOfEmptyCollectorIsFree(t *testing.T) {
	c := NewCollector(4096)
	n := c.Clone()
	if n.spans != nil {
		t.Fatal("empty clone allocated span storage")
	}
	n.Add(SpanWake, 0, 0, 1, 2, "")
	if c.SpanCount() != 0 || n.SpanCount() != 1 {
		t.Fatalf("SpanCount parent=%d clone=%d, want 0/1", c.SpanCount(), n.SpanCount())
	}
}

func TestSameSimulationSameTrace(t *testing.T) {
	// The determinism contract behind the byte-identical export gate:
	// replaying an identical record sequence yields identical state.
	run := func() *Collector {
		c := NewCollector(32)
		c.Begin(0, SpanCState, 0, 0, "C0")
		c.Begin(100, SpanCState, 0, 0, "C6")
		c.Add(SpanWake, 0, 1, 150, 190, "C6 same-core")
		c.Beginf(200, SpanUncore, 0, -1, "%d MHz", 2500)
		return c
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Spans(), b.Spans()) ||
		!reflect.DeepEqual(a.Open(999), b.Open(999)) {
		t.Fatal("identical record sequences produced different collectors")
	}
}

func TestSpanKindStrings(t *testing.T) {
	for k := SpanPState; k <= SpanWake; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "span(") {
			t.Fatalf("kind %d has no name: %q", int(k), s)
		}
	}
	if got := SpanKind(99).String(); got != "span(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestSpanStringScopes(t *testing.T) {
	sysSpan := Span{Kind: SpanGovernor, Socket: -1, CPU: -1, Start: 0, End: 1, Label: "ondemand"}
	if s := sysSpan.String(); !strings.Contains(s, "sys") || strings.Contains(s, "cpu") {
		t.Errorf("system span = %q", s)
	}
	pkgSpan := Span{Kind: SpanUncore, Socket: 1, CPU: -1, Start: 0, End: 1}
	if s := pkgSpan.String(); !strings.Contains(s, "s1") || strings.Contains(s, "cpu") {
		t.Errorf("socket span = %q", s)
	}
	coreSpan := Span{Kind: SpanCState, Socket: 0, CPU: 7, Start: 0, End: 1, Label: "C6"}
	if s := coreSpan.String(); !strings.Contains(s, "s0/cpu7") || !strings.Contains(s, "C6") {
		t.Errorf("core span = %q", s)
	}
}

func TestRenderSpansTail(t *testing.T) {
	c := NewCollector(8)
	c.Add(SpanWake, 0, 0, 0, 1, "first")
	c.Add(SpanWake, 0, 0, 2, 3, "second")
	out := c.RenderSpans(1)
	if strings.Contains(out, "first") || !strings.Contains(out, "second") {
		t.Fatalf("RenderSpans(1) = %q", out)
	}
}

func TestDefaultSpanCapacity(t *testing.T) {
	c := NewCollector(0)
	for i := 0; i < 5000; i++ {
		c.Add(SpanWake, 0, 0, sim.Time(i), sim.Time(i+1), "")
	}
	if c.SpanCount() != 4096 {
		t.Fatalf("default span capacity = %d, want 4096", c.SpanCount())
	}
}
