package eprof

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// buildPlan assembles a small plan against c with one of each entry
// kind and returns it, mirroring what core.Socket.rebuildEplan does.
func buildPlan(c *Collector) *Plan {
	p := &Plan{}
	c.SyncPlan(p)
	p.AddConst(c.BucketDynamic(0, 0, "compute", false, 2400), 10)
	p.AddLeak(c.BucketLeakage(0, 0, 1, "C0"), 4, 1)
	p.AddLeak(c.BucketLeakage(0, 1, 3, "C3"), 4, 0.3)
	p.AddConst(c.BucketSocket(0, CompUncore, 2000), 5)
	p.AddConst(c.BucketSocket(0, CompStatic, 0), 20)
	p.AddConst(c.BucketSocket(0, CompDRAM, 0), 7)
	return p
}

func TestApplyArithmetic(t *testing.T) {
	c := NewCollector("root")
	p := buildPlan(c)
	// Two segments with different temperature factors.
	c.Apply(p, 0.5, 500_000_000, 1.0)
	c.Apply(p, 0.25, 250_000_000, 1.2)
	if c.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", c.Segments())
	}
	sumDt := 0.75
	sumTf := 0.5*1.0 + 0.25*1.2
	want := 10*sumDt + // dynamic
		4*sumTf + // C0 leakage
		0.3*4*sumTf + // C3 leakage
		(5+20+7)*sumDt // uncore + static + dram
	if got := c.TotalEnergyJ(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", got, want)
	}
	// Every bucket saw both segments' virtual time.
	prof := Build(c)
	for _, l := range prof.Lines {
		if l.VTimeNS != 750_000_000 {
			t.Fatalf("bucket %v vtime = %d, want 750000000", l.Frames, l.VTimeNS)
		}
	}
}

func TestForkIsolationCOW(t *testing.T) {
	parent := NewCollector("root")
	pp := buildPlan(parent)
	parent.Apply(pp, 1, 1_000_000_000, 1)
	parentTotal := parent.TotalEnergyJ()

	child := parent.Fork()

	// Child accumulates through its own plan (fresh, as after
	// Plan.Attach on a forked socket) and creates a new bucket.
	cp := &Plan{}
	child.SyncPlan(cp)
	cp.AddConst(child.BucketDynamic(0, 5, "memory", true, 1200), 3)
	child.Apply(cp, 2, 2_000_000_000, 1)

	if got := parent.TotalEnergyJ(); got != parentTotal {
		t.Fatalf("child accumulation changed parent: %v -> %v", parentTotal, got)
	}
	if got := child.TotalEnergyJ(); math.Abs(got-(parentTotal+6)) > 1e-12 {
		t.Fatalf("child total = %v, want %v", got, parentTotal+6)
	}

	delta := child.DeltaFrom(parent)
	if len(delta) != 1 {
		t.Fatalf("delta has %d samples, want 1 (only the new bucket moved)", len(delta))
	}
	if delta[0].Stack.Kernel != "memory" || delta[0].Energy != 6 {
		t.Fatalf("unexpected delta %+v", delta[0])
	}

	parent.Merge(delta)
	if got := parent.TotalEnergyJ(); math.Abs(got-(parentTotal+6)) > 1e-12 {
		t.Fatalf("merged parent total = %v, want %v", got, parentTotal+6)
	}
}

func TestMergeOrderDeterminism(t *testing.T) {
	// Two children with overlapping buckets merged in point order must
	// reproduce the serial accumulation bit for bit.
	build := func() *Collector {
		c := NewCollector("root")
		p := buildPlan(c)
		c.Apply(p, 0.1, 100, 1.1)
		return c
	}
	serial := build()
	forked := build()

	mk := func(parent *Collector, dt float64, tf float64) []Sample {
		ch := parent.Fork()
		cp := &Plan{}
		ch.SyncPlan(cp)
		cp.AddConst(ch.BucketDynamic(0, 0, "compute", false, 2400), 10)
		cp.AddLeak(ch.BucketLeakage(0, 0, 1, "C0"), 4, 1)
		ch.Apply(cp, dt, int64(dt*1e9), tf)
		return ch.DeltaFrom(parent)
	}
	// "Parallel": extract both deltas, then merge in point order.
	d0 := mk(forked, 0.3, 1.0)
	d1 := mk(forked, 0.7, 1.3)
	forked.Merge(d0)
	forked.Merge(d1)

	// Serial reference: same accumulation applied directly in order.
	sp := &Plan{}
	serial.SyncPlan(sp)
	sp.AddConst(serial.BucketDynamic(0, 0, "compute", false, 2400), 10)
	sp.AddLeak(serial.BucketLeakage(0, 0, 1, "C0"), 4, 1)
	serial.Apply(sp, 0.3, 300_000_000, 1.0)
	serial.flushAll() // flush boundary matches the per-point DeltaFrom
	serial.Apply(sp, 0.7, 700_000_000, 1.3)

	var sb, fb bytes.Buffer
	if err := Build(serial).WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	if err := Build(forked).WriteFolded(&fb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != fb.String() {
		t.Fatalf("serial vs merged folded output differs:\n%s\n----\n%s", sb.String(), fb.String())
	}
}

func TestSetPhaseSplitsBuckets(t *testing.T) {
	c := NewCollector("root")
	p := buildPlan(c)
	c.Apply(p, 1, 1_000_000_000, 1)
	c.SyncPlan(p) // flush before re-planning under the new phase
	c.SetPhase("steady")
	p.Reset()
	p.AddConst(c.BucketSocket(0, CompStatic, 0), 20)
	c.Apply(p, 2, 2_000_000_000, 1)

	prof := Build(c)
	var mainE, steadyE int64
	for _, l := range prof.Lines {
		switch l.Frames[1] {
		case "main":
			mainE += l.EnergyNJ
		case "steady":
			steadyE += l.EnergyNJ
		}
	}
	// main: 10 + 4 + 0.3*4 + 5 + 20 + 7 = 47.2 J over 1 s.
	if mainE != 47_200_000_000 || steadyE != 40_000_000_000 {
		t.Fatalf("phase split = main %d nJ, steady %d nJ; want 47.2e9 / 40e9", mainE, steadyE)
	}
}

func TestFoldedSumsMatchTotals(t *testing.T) {
	c := NewCollector("root")
	p := buildPlan(c)
	c.Apply(p, 0.123456789, 123_456_789, 1.05)
	prof := Build(c)

	var buf bytes.Buffer
	if err := prof.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	var sum int64
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(prof.Lines) {
		t.Fatalf("folded has %d lines, profile %d", len(lines), len(prof.Lines))
	}
	for i, ln := range lines {
		if i > 0 && lines[i-1] >= ln {
			t.Fatalf("folded lines not sorted: %q then %q", lines[i-1], ln)
		}
		var v int64
		for _, ch := range ln[strings.LastIndexByte(ln, ' ')+1:] {
			v = v*10 + int64(ch-'0')
		}
		sum += v
	}
	if sum != prof.TotalEnergyNJ() {
		t.Fatalf("folded column sum %d != TotalEnergyNJ %d", sum, prof.TotalEnergyNJ())
	}
}

func TestPprofRoundTrip(t *testing.T) {
	c := NewCollector("root")
	p := buildPlan(c)
	c.Apply(p, 1.5, 1_500_000_000, 1.07)
	prof := Build(c)

	var buf bytes.Buffer
	if err := prof.WritePprof(&buf, SampleTypeVTime); err != nil {
		t.Fatal(err)
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.SampleTypes; len(got) != 2 || got[0] != SampleTypeEnergy || got[1] != SampleTypeVTime {
		t.Fatalf("sample types = %v", got)
	}
	if parsed.DefaultType != SampleTypeVTime {
		t.Fatalf("default type = %q", parsed.DefaultType)
	}
	if parsed.DurationNS != prof.DurationNS {
		t.Fatalf("duration = %d, want %d", parsed.DurationNS, prof.DurationNS)
	}
	if len(parsed.Samples) != len(prof.Lines) {
		t.Fatalf("%d samples, want %d", len(parsed.Samples), len(prof.Lines))
	}
	var eSum int64
	for i, s := range parsed.Samples {
		l := prof.Lines[i]
		if strings.Join(s.Frames, ";") != strings.Join(l.Frames, ";") {
			t.Fatalf("sample %d frames %v != line frames %v", i, s.Frames, l.Frames)
		}
		if len(s.Values) != 2 || s.Values[0] != l.EnergyNJ || s.Values[1] != l.VTimeNS {
			t.Fatalf("sample %d values %v, want [%d %d]", i, s.Values, l.EnergyNJ, l.VTimeNS)
		}
		eSum += s.Values[0]
	}
	if eSum != prof.TotalEnergyNJ() {
		t.Fatalf("pprof energy sum %d != %d", eSum, prof.TotalEnergyNJ())
	}

	// Byte determinism of the encoder itself.
	var buf2 bytes.Buffer
	if err := prof.WritePprof(&buf2, SampleTypeVTime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, buf2.Bytes()) {
		t.Fatal("pprof encoding is not byte-deterministic")
	}
}

func TestBuildMergesCollectors(t *testing.T) {
	a := NewCollector("expA")
	pa := buildPlan(a)
	a.Apply(pa, 1, 1_000_000_000, 1)
	b := NewCollector("expB")
	pb := buildPlan(b)
	b.Apply(pb, 1, 1_000_000_000, 1)

	prof := Build(a, nil, b)
	roots := map[string]bool{}
	for _, l := range prof.Lines {
		roots[l.Frames[0]] = true
	}
	if !roots["expA"] || !roots["expB"] {
		t.Fatalf("profile roots = %v, want both expA and expB", roots)
	}
	if prof.TotalEnergyNJ() != 2*47_200_000_000 {
		t.Fatalf("merged total = %d", prof.TotalEnergyNJ())
	}
}
