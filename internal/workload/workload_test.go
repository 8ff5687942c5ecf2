package workload

import (
	"math"
	"testing"

	"hswsim/internal/sim"
)

func TestAllKernelsValidate(t *testing.T) {
	kernels := []Kernel{
		BusyWait(), Compute(), Sqrt(), Memory(), DGEMM(),
		L3Stream(), MemStream(), Sinus(sim.Second),
		Firestarter(), Linpack(), Mprime(),
		PointerChase(), Triad(), NUMAStream(0.5), Stream(1<<10, 1<<20, 1<<25),
		FirestarterFromPayload(GeneratePayload(HaswellICache(), 1000)),
	}
	kernels = append(kernels, HPCKernels()...)
	for _, k := range kernels {
		for _, at := range []sim.Time{0, 17 * sim.Millisecond, sim.Second, 3*sim.Second + 1} {
			if err := k.ProfileAt(at).Validate(); err != nil {
				t.Errorf("%s at %v: %v", k.Name(), at, err)
			}
		}
	}
}

func TestBusyWaitHasNoMemoryStalls(t *testing.T) {
	p := BusyWait().ProfileAt(0)
	if p.MemoryBound() {
		t.Fatal("busy wait must not touch L3/DRAM (Table III probe)")
	}
	if p.AVXFrac != 0 {
		t.Fatal("busy wait must not use AVX")
	}
}

func TestFirestarterMatchesPaper(t *testing.T) {
	p := Firestarter().ProfileAt(0)
	// Section VIII: 3.1 IPC with Hyper-Threading, 2.8 without — these
	// are the *effective* values at the Table IV operating point
	// (~2.3 GHz uncore), where the uncore-latency term applies.
	atOpPoint := 1 - p.UncoreSens*(1-2.33/p.UncoreRefGHz)
	if got := p.IPC2 * atOpPoint; math.Abs(got-3.1) > 0.05 {
		t.Errorf("FIRESTARTER effective HT IPC = %.2f, want ~3.1", got)
	}
	if got := p.IPC1 * atOpPoint; math.Abs(got-2.8) > 0.05 {
		t.Errorf("FIRESTARTER effective 1T IPC = %.2f, want ~2.8", got)
	}
	// Group mix must sum to 1.
	sum := FSGroupReg + FSGroupL1 + FSGroupL2 + FSGroupL3 + FSGroupMem
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("group ratios sum to %v, want 1.0", sum)
	}
	// Highest activity of all kernels: it is the power virus.
	if p.Activity < 1.0 {
		t.Errorf("FIRESTARTER activity %v should be maximal", p.Activity)
	}
	if !p.MemoryBound() {
		t.Error("FIRESTARTER touches L3 and memory (0.8% / 1.6% groups)")
	}
	if p.AVXFrac <= 0 {
		t.Error("FIRESTARTER is FMA-based; must trigger AVX frequencies")
	}
}

func TestFirestarterConstantOverTime(t *testing.T) {
	k := Firestarter()
	p0 := k.ProfileAt(0)
	for _, at := range []sim.Time{sim.Millisecond, sim.Second, 59 * sim.Second} {
		if k.ProfileAt(at) != p0 {
			t.Fatalf("FIRESTARTER profile varies over time — it must be constant")
		}
	}
}

func TestSinusVariesSmoothly(t *testing.T) {
	k := Sinus(sim.Second)
	lo, hi := math.Inf(1), math.Inf(-1)
	for ms := 0; ms < 1000; ms += 10 {
		a := k.ProfileAt(sim.Time(ms) * sim.Millisecond).Activity
		lo = math.Min(lo, a)
		hi = math.Max(hi, a)
	}
	if hi-lo < 0.5 {
		t.Fatalf("sinus swing too small: [%v, %v]", lo, hi)
	}
	// Periodicity.
	if k.ProfileAt(0) != k.ProfileAt(sim.Second) {
		t.Fatal("sinus not periodic")
	}
	// Default period for non-positive input.
	if Sinus(0).ProfileAt(123) != k.ProfileAt(123) {
		t.Fatal("Sinus(0) should default to 1s period")
	}
}

func TestLinpackHasPhases(t *testing.T) {
	k := Linpack()
	update := k.ProfileAt(0)
	panel := k.ProfileAt(170 * sim.Millisecond) // inside the last 20% of a 180 ms step
	if update == panel {
		t.Fatal("LINPACK must alternate update/panel phases")
	}
	if update.Activity <= panel.Activity {
		t.Fatal("update phase must draw more power than panel phase")
	}
	if update.AVXFrac < 0.5 {
		t.Fatal("LINPACK update phase is AVX-saturated")
	}
}

func TestMprimeVariesMoreThanFirestarter(t *testing.T) {
	variance := func(k Kernel) float64 {
		var xs []float64
		for ms := 0; ms < 4000; ms += 50 {
			xs = append(xs, k.ProfileAt(sim.Time(ms)*sim.Millisecond).Activity)
		}
		m, s := 0.0, 0.0
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return s / float64(len(xs))
	}
	if variance(Mprime()) <= variance(Firestarter()) {
		t.Fatal("mprime power must be less constant than FIRESTARTER's")
	}
}

func TestStreamSelectsLevelByFootprint(t *testing.T) {
	l2 := 256 << 10
	l3 := 30 << 20
	if k := Stream(17<<20, l2, l3); k.Name() != "L3 read" {
		t.Errorf("17 MB -> %s, want L3 read", k.Name())
	}
	if k := Stream(350<<20, l2, l3); k.Name() != "DRAM read" {
		t.Errorf("350 MB -> %s, want DRAM read", k.Name())
	}
	if k := Stream(100<<10, l2, l3); k.Name() != "L2 read" {
		t.Errorf("100 KB -> %s, want L2 read", k.Name())
	}
}

func TestStreamKernelsAreBandwidthBound(t *testing.T) {
	if p := L3Stream().ProfileAt(0); p.L3BytesPerInst <= 0 || p.MemBytesPerInst != 0 {
		t.Error("L3 stream must generate only L3 traffic")
	}
	if p := MemStream().ProfileAt(0); p.MemBytesPerInst <= 0 || p.L3BytesPerInst != 0 {
		t.Error("DRAM stream must generate only DRAM traffic")
	}
}

func TestPhasedKernel(t *testing.T) {
	a := Profile{IPC1: 2, IPC2: 2.4, Activity: 0.9}
	b := Profile{IPC1: 0.5, IPC2: 0.6, Activity: 0.3, MemBytesPerInst: 6}
	k := &Phased{Label: "phased", A: a, B: b, HalfPeriod: sim.Millisecond}
	if k.ProfileAt(0) != a || k.ProfileAt(999*sim.Microsecond) != a {
		t.Fatal("first half-period must be A")
	}
	if k.ProfileAt(sim.Millisecond) != b || k.ProfileAt(1999*sim.Microsecond) != b {
		t.Fatal("second half-period must be B")
	}
	if k.ProfileAt(2*sim.Millisecond) != a {
		t.Fatal("third half-period must be A again")
	}
	// Degenerate half-period pins profile A.
	k2 := &Phased{Label: "x", A: a, B: b}
	if k2.ProfileAt(5*sim.Second) != a {
		t.Fatal("zero half-period must pin A")
	}
}

func TestFig2Set(t *testing.T) {
	set := Fig2Set()
	if len(set) != 7 {
		t.Fatalf("Fig2 set has %d entries, want 7", len(set))
	}
	if set[0] != nil {
		t.Fatal("first Fig2 entry must be idle (nil)")
	}
	names := map[string]bool{}
	for _, k := range set {
		names[NameOf(k)] = true
	}
	for _, want := range []string{"idle", "sinus", "busy wait", "memory", "compute", "dgemm", "sqrt"} {
		if !names[want] {
			t.Errorf("Fig2 set missing %q (have %v)", want, names)
		}
	}
}

func TestProfileValidateCatchesBadValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		bad  func(*Profile)
	}{
		{"IPC1 negative", func(p *Profile) { p.IPC1 = -1 }},
		{"IPC1 NaN", func(p *Profile) { p.IPC1 = nan }},
		{"IPC2 below half IPC1", func(p *Profile) { p.IPC1, p.IPC2 = 2, 0.5 }},
		{"IPC2 +Inf", func(p *Profile) { p.IPC2 = inf }},
		{"AVXFrac above 1", func(p *Profile) { p.AVXFrac = 1.5 }},
		{"AVXFrac NaN", func(p *Profile) { p.AVXFrac = nan }},
		{"Activity above 1.5", func(p *Profile) { p.Activity = 2.0 }},
		{"Activity NaN", func(p *Profile) { p.Activity = nan }},
		{"L3BytesPerInst negative", func(p *Profile) { p.L3BytesPerInst = -1 }},
		{"L3BytesPerInst +Inf", func(p *Profile) { p.L3BytesPerInst = inf }},
		{"MemBytesPerInst -Inf", func(p *Profile) { p.MemBytesPerInst = -inf }},
		{"MLPOverride negative", func(p *Profile) { p.MLPOverride = -3 }},
		{"RemoteMemFrac above 1", func(p *Profile) { p.RemoteMemFrac = 7 }},
		{"RemoteMemFrac NaN", func(p *Profile) { p.RemoteMemFrac = nan }},
		{"UncoreSens negative", func(p *Profile) { p.UncoreSens = -2 }},
		{"UncoreSens NaN", func(p *Profile) { p.UncoreSens = nan }},
		{"UncoreRefGHz negative", func(p *Profile) { p.UncoreRefGHz = -1 }},
		{"UncoreRefGHz +Inf", func(p *Profile) { p.UncoreRefGHz = inf }},
	} {
		p := Profile{IPC1: 1, IPC2: 1}
		if err := p.Validate(); err != nil {
			t.Fatalf("base profile rejected: %v", err)
		}
		tc.bad(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, p)
		}
	}
}

func TestNameOf(t *testing.T) {
	if NameOf(nil) != "idle" {
		t.Error("nil kernel must render as idle")
	}
	if NameOf(Firestarter()) != "FIRESTARTER" {
		t.Error("wrong kernel name")
	}
}

func TestScriptedKernel(t *testing.T) {
	a := Profile{IPC1: 2, IPC2: 2.4, Activity: 0.8}
	b := Profile{IPC1: 1, IPC2: 1.2, Activity: 0.3, MemBytesPerInst: 4}
	k, err := NewScripted("trace",
		Segment{Duration: 10 * sim.Millisecond, Profile: a},
		Segment{Duration: 5 * sim.Millisecond, Profile: b},
	)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name() != "trace" {
		t.Error("name lost")
	}
	if k.ProfileAt(0) != a || k.ProfileAt(9*sim.Millisecond) != a {
		t.Error("first segment wrong")
	}
	if k.ProfileAt(10*sim.Millisecond) != b || k.ProfileAt(14*sim.Millisecond) != b {
		t.Error("second segment wrong")
	}
	// Loops.
	if k.ProfileAt(15*sim.Millisecond) != a || k.ProfileAt(25*sim.Millisecond) != b {
		t.Error("loop wrong")
	}
	// Validation.
	if _, err := NewScripted("x"); err == nil {
		t.Error("empty script accepted")
	}
	if _, err := NewScripted("x", Segment{Duration: 0, Profile: a}); err == nil {
		t.Error("zero-duration segment accepted")
	}
	if _, err := NewScripted("x", Segment{Duration: 1, Profile: Profile{IPC1: -1}}); err == nil {
		t.Error("invalid profile accepted")
	}
}
