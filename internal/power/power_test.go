package power

import (
	"math"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func hswPM() *uarch.PowerModel {
	pm := uarch.E52680v3().Power
	return &pm
}

func voltsFor(f float64) float64 { return 0.75 + 0.22*(f-1.2) }

// compute evaluates the model once into a throwaway memo.
func compute(p *PackageModel, cores []CoreState, uncoreGHz, uncoreVolts float64) Breakdown {
	var memo ComputeMemo
	return p.ComputeMemoized(&memo, cores, uncoreGHz, uncoreVolts)
}

func firestarterCores(n int, ghz float64, ht bool) []CoreState {
	cs := make([]CoreState, n)
	share := 2.8 / 3.1
	if ht {
		share = 1.0
	}
	for i := range cs {
		cs[i] = CoreState{
			FreqGHz: ghz, Volts: voltsFor(ghz),
			Activity: 1.0, AVXFrac: 0.5, IPCShare: share,
			CState: cstate.C0,
		}
	}
	return cs
}

// TestFirestarterTDPCalibration is the central power calibration: 12
// FIRESTARTER cores (HT) at ~2.3 GHz with the uncore at ~2.3 GHz must
// pin the package at its 120 W TDP — the Table IV operating point.
func TestFirestarterTDPCalibration(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	// Settle temperature at the operating point.
	for i := 0; i < 100; i++ {
		b := compute(p, firestarterCores(12, 2.3, true), 2.3, voltsFor(2.3))
		p.UpdateTemp(b.Total(), 100*sim.Millisecond)
	}
	got := compute(p, firestarterCores(12, 2.3, true), 2.3, voltsFor(2.3)).Total()
	if got < 112 || got > 128 {
		t.Fatalf("FIRESTARTER@2.3/2.3 package power = %.1f W, want ~120 (TDP)", got)
	}
}

// Without Hyper-Threading FIRESTARTER retires fewer instructions
// (2.8 vs 3.1 IPC), so the same frequency draws less power — which is
// why Table V shows it sustaining ~2.45 GHz instead of Table IV's 2.30.
func TestHTOffDrawsLess(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	ht := compute(p, firestarterCores(12, 2.3, true), 2.3, voltsFor(2.3)).Total()
	noHT := compute(p, firestarterCores(12, 2.3, false), 2.3, voltsFor(2.3)).Total()
	if noHT >= ht {
		t.Fatalf("no-HT power %.1f must be below HT power %.1f", noHT, ht)
	}
	if noHT > ht*0.95 {
		t.Fatalf("no-HT power %.1f should be several watts below %.1f", noHT, ht)
	}
}

func TestIdlePackagePower(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	idle := make([]CoreState, 12)
	for i := range idle {
		idle[i] = CoreState{CState: cstate.C6, Volts: 0.75}
	}
	b := compute(p, idle, 1.2, voltsFor(1.2))
	// Power-gated cores: only uncore + static remain (~12 W).
	if b.CoresDynamic != 0 || b.Leakage != 0 {
		t.Fatalf("C6 cores must not burn power: %+v", b)
	}
	if b.Total() < 8 || b.Total() > 16 {
		t.Fatalf("idle package power = %.1f W, want ~12", b.Total())
	}
}

func TestCStateLadderPower(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	one := func(s cstate.State) float64 {
		c := []CoreState{{FreqGHz: 2.5, Volts: voltsFor(2.5), Activity: 0.8, IPCShare: 1, CState: s}}
		return compute(p, c, 0, 0).Total()
	}
	c0, c1, c3, c6 := one(cstate.C0), one(cstate.C1), one(cstate.C3), one(cstate.C6)
	if !(c0 > c1 && c1 > c3 && c3 > c6) {
		t.Fatalf("c-state power ladder violated: C0=%.2f C1=%.2f C3=%.2f C6=%.2f", c0, c1, c3, c6)
	}
}

func TestAVXBoostsPower(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	mk := func(avx float64) []CoreState {
		return []CoreState{{FreqGHz: 2.5, Volts: voltsFor(2.5), Activity: 0.9, AVXFrac: avx, IPCShare: 1, CState: cstate.C0}}
	}
	scalar := compute(p, mk(0), 0, 0).Total()
	avx := compute(p, mk(0.8), 0, 0).Total()
	if avx <= scalar*1.1 {
		t.Fatalf("AVX-heavy core %.2f W should draw clearly more than scalar %.2f W", avx, scalar)
	}
}

func TestCeffScaleMakesSocketLessEfficient(t *testing.T) {
	p0 := NewPackageModel(hswPM(), 1.02, 30)
	p1 := NewPackageModel(hswPM(), 1.0, 30)
	c := firestarterCores(12, 2.3, true)
	if compute(p0, c, 2.3, voltsFor(2.3)).Total() <= compute(p1, c, 2.3, voltsFor(2.3)).Total() {
		t.Fatal("socket with CeffScale > 1 must draw more power")
	}
}

func TestTemperatureFeedbackIncreasesLeakage(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	c := firestarterCores(12, 2.5, true)
	cold := compute(p, c, 2.5, voltsFor(2.5))
	for i := 0; i < 200; i++ {
		p.UpdateTemp(130, 100*sim.Millisecond)
	}
	hot := compute(p, c, 2.5, voltsFor(2.5))
	if hot.Leakage <= cold.Leakage {
		t.Fatalf("leakage must rise with temperature: %.2f vs %.2f", hot.Leakage, cold.Leakage)
	}
	// Steady-state temperature: ambient + Rth * P.
	want := 30 + hswPM().ThermalResistance*130
	if math.Abs(p.TempC()-want) > 1 {
		t.Fatalf("steady temp = %.1f, want %.1f", p.TempC(), want)
	}
}

func TestNodeIdleCalibration(t *testing.T) {
	// Table II: idle power with fans at maximum = 261.5 W. Idle RAPL
	// domains with both packages in PC6 (uncore halted): 2 packages
	// (~8 W static each) + 2 DRAM domains (~6 W each).
	node := HaswellNode()
	ac := node.ACWatts(2*8.0 + 2*6.0)
	if math.Abs(ac-261.5) > 3 {
		t.Fatalf("idle AC = %.1f W, want 261.5 +/- 3", ac)
	}
}

func TestNodeFirestarterCalibration(t *testing.T) {
	// Table V: FIRESTARTER ~560 W AC. RAPL: 2x120 W TDP + 2x~9 W DRAM.
	node := HaswellNode()
	ac := node.ACWatts(2*120 + 2*9)
	if math.Abs(ac-560) > 8 {
		t.Fatalf("FIRESTARTER AC = %.1f W, want ~560", ac)
	}
}

func TestACMonotoneAndSuperlinear(t *testing.T) {
	node := HaswellNode()
	prev := node.ACWatts(0)
	prevSlope := 0.0
	for r := 10.0; r <= 300; r += 10 {
		ac := node.ACWatts(r)
		slope := (ac - prev) / 10
		if ac <= prev {
			t.Fatalf("AC not monotone at %v", r)
		}
		if prevSlope > 0 && slope < prevSlope-1e-9 {
			t.Fatalf("AC slope must grow with load (PSU losses): %v then %v", prevSlope, slope)
		}
		prev, prevSlope = ac, slope
	}
}

func TestLMG450Accuracy(t *testing.T) {
	m := NewLMG450(sim.NewRNG(1))
	for i := 0; i < 1000; i++ {
		m.Record(sim.Time(i)*SamplePeriod, 500)
	}
	for _, s := range m.Samples() {
		if math.Abs(s.W-500) > 0.0007*500+0.23+1e-9 {
			t.Fatalf("sample %.3f outside accuracy band", s.W)
		}
	}
	avg := m.Average(0, 1000*SamplePeriod)
	if math.Abs(avg-500) > 0.1 {
		t.Fatalf("average %.3f should be ~500 (noise averages out)", avg)
	}
}

func TestLMG450Windows(t *testing.T) {
	m := NewLMG450(sim.NewRNG(2))
	// 10 s at 300 W, then 10 s at 500 W, then 10 s at 400 W.
	for i := 0; i < 600; i++ {
		w := 300.0
		if i >= 200 && i < 400 {
			w = 500
		} else if i >= 400 {
			w = 400
		}
		m.Record(sim.Time(i)*SamplePeriod, w)
	}
	best := m.MaxWindowAverage(10 * sim.Second)
	if math.Abs(best-500) > 2 {
		t.Fatalf("max 10s window = %.1f, want ~500", best)
	}
	if got := m.Average(5*sim.Second, 10*sim.Second); math.Abs(got-300) > 2 {
		t.Fatalf("average of first phase = %.1f, want ~300", got)
	}
	if m.Average(999*sim.Second, 1000*sim.Second) != 0 {
		t.Fatal("empty window must average to 0")
	}
	if NewLMG450(sim.NewRNG(3)).MaxWindowAverage(sim.Second) != 0 {
		t.Fatal("empty meter must return 0")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{CoresDynamic: 80, Leakage: 12, Uncore: 15, Static: 8}
	if b.Total() != 115 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestZeroIPCShareDefaultsToFull(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.0, 30)
	a := compute(p, []CoreState{{FreqGHz: 2, Volts: 1, Activity: 0.5, IPCShare: 0, CState: cstate.C0}}, 0, 0)
	b := compute(p, []CoreState{{FreqGHz: 2, Volts: 1, Activity: 0.5, IPCShare: 1, CState: cstate.C0}}, 0, 0)
	if a.Total() != b.Total() {
		t.Fatal("unset IPCShare must behave as 1.0")
	}
}

// TestTableIVContour guards the central calibration: the paper's three
// sustained Table IV operating points must all sit on (or near) the
// 120 W TDP contour of the implemented power model. If someone drifts
// CeffCore/CeffUncore, this fails.
func TestTableIVContour(t *testing.T) {
	points := []struct{ core, uncore float64 }{
		{2.30, 2.33},
		{2.27, 2.46},
		{2.19, 2.80},
	}
	p := NewPackageModel(hswPM(), 1.0, 30)
	// Settle temperature at ~TDP.
	for i := 0; i < 200; i++ {
		p.UpdateTemp(120, 100*sim.Millisecond)
	}
	for _, pt := range points {
		cores := make([]CoreState, 12)
		for i := range cores {
			cores[i] = CoreState{
				FreqGHz: pt.core, Volts: voltsFor(pt.core),
				Activity: 1.0, AVXFrac: 0.5, IPCShare: 1.0, // HT FIRESTARTER
				CState: cstate.C0,
			}
		}
		got := compute(p, cores, pt.uncore, voltsFor(pt.uncore)).Total()
		if math.Abs(got-120) > 6 {
			t.Errorf("(%.2f, %.2f): %.1f W, want on the 120 W contour (+/-6)",
				pt.core, pt.uncore, got)
		}
	}
}

// TestReplayMatchesComputeBitwise: Replay visits only the leaking
// cores, yet must return exactly what ComputeMemoized returns for the
// same operating point, at every die temperature — with every c-state
// mix, including a fully power-gated die.
func TestReplayMatchesComputeBitwise(t *testing.T) {
	states := []cstate.State{cstate.C0, cstate.C1, cstate.C3, cstate.C6}
	for mix := 0; mix < 6; mix++ {
		p := NewPackageModel(hswPM(), 1.02, 30)
		p.LeakScale = 1.07
		cores := firestarterCores(12, 2.1, true)
		for i := range cores {
			cores[i].CState = states[(i*mix+i/3)%len(states)]
			if mix == 5 {
				cores[i].CState = cstate.C6
			}
			cores[i].Volts += 0.01 * float64(i)
		}
		var memo ComputeMemo
		want := p.ComputeMemoized(&memo, cores, 2.4, voltsFor(2.4))
		for step := 0; step < 5; step++ {
			if got := p.Replay(&memo); got != want {
				t.Fatalf("mix %d step %d: Replay = %+v, ComputeMemoized = %+v", mix, step, got, want)
			}
			p.UpdateTemp(want.Total()+40, 300*sim.Millisecond)
			want = compute(p, cores, 2.4, voltsFor(2.4))
		}
	}
}

// TestSharedDynamicPrefixBitwise: ComputeMemoized reuses the
// CeffCore·CeffScale·effectiveActivity prefix across consecutive C0
// cores with equal (Activity, IPCShare, AVXFrac). Every core's dynamic
// term, and their sum, must equal the per-core formula bit for bit,
// with runs of equal keys broken by key changes and sleeping cores.
func TestSharedDynamicPrefixBitwise(t *testing.T) {
	p := NewPackageModel(hswPM(), 1.02, 30)
	keys := []struct{ act, share, avx float64 }{
		{1.0, 0.93, 0.5}, {0.7, 0.41, 0}, {0.7, 0, 0}, {0.55, 1, 0.2},
	}
	states := []cstate.State{cstate.C0, cstate.C0, cstate.C0, cstate.C1, cstate.C6, cstate.C3}
	for mix := 0; mix < 8; mix++ {
		cores := make([]CoreState, 12)
		for i := range cores {
			k := keys[(i/3+mix*i/5)%len(keys)]
			f := 1.2 + 0.1*float64((i+mix)%9)
			cores[i] = CoreState{FreqGHz: f, Volts: voltsFor(f) + 0.003*float64(i),
				Activity: k.act, IPCShare: k.share, AVXFrac: k.avx,
				CState: states[(i+mix)%len(states)]}
		}
		var memo ComputeMemo
		b := p.ComputeMemoized(&memo, cores, 2.4, voltsFor(2.4))
		sum := 0.0
		for i, c := range cores {
			want := 0.0
			if c.CState == cstate.C0 {
				want = p.PM.CeffCore * p.CeffScale * p.effectiveActivity(c) *
					c.Volts * c.Volts * c.FreqGHz
			}
			sum += want
			if got := memo.Dyn(i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mix %d core %d: dynamic %v, per-core formula %v", mix, i, got, want)
			}
		}
		if math.Float64bits(b.CoresDynamic) != math.Float64bits(sum) {
			t.Fatalf("mix %d: CoresDynamic %v, per-core sum %v", mix, b.CoresDynamic, sum)
		}
	}
}
