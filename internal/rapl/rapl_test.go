package rapl

import (
	"math"
	"testing"

	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func TestDomainAccumulation(t *testing.T) {
	d := Domain{UnitJoules: msr.EnergyUnitJoules(msr.PowerUnitValue(3, 14, 10))}
	d.Add(100, sim.Second.Seconds()) // 100 J
	if math.Abs(d.EnergyJoules()-100) > 1e-9 {
		t.Fatalf("energy = %v, want 100 J", d.EnergyJoules())
	}
	wantCounts := uint64(100 / d.UnitJoules)
	if c := d.Counter(); c != wantCounts {
		t.Fatalf("counter = %d, want %d", c, wantCounts)
	}
}

func TestCounterWraparound(t *testing.T) {
	unit := 15.3e-6
	// Near the 32-bit wrap point.
	prev := uint64(0xFFFFFFF0)
	cur := uint64(0x00000010)
	got := CounterDelta(prev, cur, unit)
	want := float64(0x20) * unit
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("wrapped delta = %v, want %v", got, want)
	}
}

func TestDomainCounterWraps(t *testing.T) {
	d := Domain{UnitJoules: 1e-6}
	// 2^32 uJ plus 5 uJ => counter must show 5.
	d.Add((math.Pow(2, 32)+5)*1e-6, sim.Second.Seconds())
	if c := d.Counter(); c != 5 {
		t.Fatalf("counter = %d, want 5 after wrap", c)
	}
}

func TestMeasuredModeTracksTruth(t *testing.T) {
	p := NewPackage(uarch.E52680v3(), 0.002)
	for i := 0; i < 100; i++ {
		p.Integrate(118, 95, 12, ModelInputs{}, (10 * sim.Millisecond).Seconds())
	}
	pkgW := p.Pkg.EnergyJoules() / 1.0
	if math.Abs(pkgW-118)/118 > 0.01 {
		t.Fatalf("measured package power %v deviates >1%% from true 118 W", pkgW)
	}
	dramW := p.DRAM.EnergyJoules() / 1.0
	if math.Abs(dramW-12)/12 > 0.01 {
		t.Fatalf("measured DRAM power %v deviates >1%% from true 12 W", dramW)
	}
}

func TestModeledModeIgnoresTruth(t *testing.T) {
	p := NewPackage(uarch.E52670SNB(), 0)
	ev := ModelInputs{ActiveVVF: 8 * 3.03, GIPS: 8 * 5.7, UncoreVVF: 3.03}
	p.Integrate(999, 800, 20, ev, sim.Second.Seconds())
	est := p.Pkg.EnergyJoules()
	if math.Abs(est-999) < 100 {
		t.Fatalf("modeled RAPL %v should not track the true 999 W", est)
	}
	if est <= 0 {
		t.Fatal("modeled estimate must be positive")
	}
	if p.LastModeledWatts() != p.Estimate(ev) {
		t.Fatal("LastModeledWatts mismatch")
	}
}

// The essential Figure 2a property: two workloads with the same TRUE
// power but different event signatures read differently through modeled
// RAPL (per-workload bias), while measured RAPL reads them identically.
func TestModeledBiasIsWorkloadDependent(t *testing.T) {
	snb := NewPackage(uarch.E52670SNB(), 0)
	// Busy-wait-like: full clocking proxy, decent instruction rate, but
	// (unknown to the model) very low real activity.
	busy := ModelInputs{ActiveVVF: 8 * 3.03, GIPS: 8 * 2.6, UncoreVVF: 3.03}
	// DGEMM-like: same clocking proxy, higher IPS, high real activity.
	dgemm := ModelInputs{ActiveVVF: 8 * 3.03, GIPS: 8 * 6.5, L3GBs: 30, MemGBs: 4, UncoreVVF: 3.03}
	estBusy := snb.Estimate(busy)
	estDgemm := snb.Estimate(dgemm)

	// Physical truth for these two (from the power model's view):
	trueBusy := 10 + 8*3.1*0.29*3.03 + 6.0*3.03  // ~48 W
	trueDgemm := 10 + 8*3.1*0.97*3.03 + 6.0*3.03 // ~101 W
	biasBusy := estBusy - trueBusy
	biasDgemm := estDgemm - trueDgemm
	if biasBusy <= 0 {
		t.Errorf("busy-wait should be overestimated by the event model, bias=%v", biasBusy)
	}
	if biasDgemm >= 0 {
		t.Errorf("dgemm (high hidden activity) should be underestimated, bias=%v", biasDgemm)
	}
	if math.Abs(biasBusy-biasDgemm) < 5 {
		t.Errorf("biases %v and %v should differ visibly (Fig 2a scatter)", biasBusy, biasDgemm)
	}

	// Measured mode: both read the same given equal true power.
	hswA := NewPackage(uarch.E52680v3(), 0)
	hswB := NewPackage(uarch.E52680v3(), 0)
	hswA.Integrate(100, 80, 10, busy, sim.Second.Seconds())
	hswB.Integrate(100, 80, 10, dgemm, sim.Second.Seconds())
	if hswA.Pkg.EnergyJoules() != hswB.Pkg.EnergyJoules() {
		t.Error("measured RAPL must be workload-independent at equal true power")
	}
}

func TestDRAMUnitConfusion(t *testing.T) {
	// Section IV: using the package energy unit for the DRAM domain
	// ("mode 0" semantics / SDM Section 14.9) yields unreasonably high
	// DRAM power; the correct fixed 15.3 uJ unit gives the true value.
	p := NewPackage(uarch.E52680v3(), 0)
	prev := p.DRAM.Counter()
	p.Integrate(100, 80, 15, ModelInputs{}, sim.Second.Seconds())
	cur := p.DRAM.Counter()

	right := PowerFromCounter(prev, cur, msr.DRAMEnergyUnitJoulesHaswellEP, sim.Second)
	if math.Abs(right-15) > 0.1 {
		t.Fatalf("DRAM power with correct unit = %v, want 15 W", right)
	}
	pkgUnit := msr.EnergyUnitJoules(msr.PowerUnitValue(3, 14, 10))
	wrong := PowerFromCounter(prev, cur, pkgUnit, sim.Second)
	if wrong < 3*right {
		t.Fatalf("DRAM power with package unit = %v, should be unreasonably high vs %v", wrong, right)
	}
}

func TestGainErrorIsBounded(t *testing.T) {
	// Per-part sensing gain: a 1% part still stays within a few watts at
	// TDP — matching the paper's <3 W residuals.
	p := NewPackage(uarch.E52680v3(), 0.008)
	p.Integrate(120, 100, 0, ModelInputs{}, sim.Second.Seconds())
	got := p.Pkg.EnergyJoules()
	if math.Abs(got-120) > 3 {
		t.Fatalf("gain error too large: %v vs 120", got)
	}
}

func TestPowerFromCounterDegenerate(t *testing.T) {
	if PowerFromCounter(0, 100, 1e-6, 0) != 0 {
		t.Fatal("zero interval must return 0")
	}
}

func TestDRAMSupportFlag(t *testing.T) {
	if !NewPackage(uarch.E52680v3(), 0).DRAMSupported {
		t.Fatal("Haswell-EP supports the DRAM domain")
	}
	if NewPackage(uarch.X5670WSM(), 0).DRAMSupported {
		t.Fatal("Westmere stand-in must not expose a DRAM domain")
	}
}

func TestEstimateMonotoneInInputs(t *testing.T) {
	p := NewPackage(uarch.E52670SNB(), 0)
	base := ModelInputs{ActiveVVF: 10, GIPS: 20, L3GBs: 10, MemGBs: 5, UncoreVVF: 3}
	e0 := p.Estimate(base)
	for _, mut := range []func(*ModelInputs){
		func(m *ModelInputs) { m.ActiveVVF += 5 },
		func(m *ModelInputs) { m.GIPS += 10 },
		func(m *ModelInputs) { m.L3GBs += 10 },
		func(m *ModelInputs) { m.MemGBs += 10 },
		func(m *ModelInputs) { m.UncoreVVF += 1 },
	} {
		m := base
		mut(&m)
		if p.Estimate(m) <= e0 {
			t.Errorf("estimate not monotone for %+v", m)
		}
	}
	if p.Estimate(ModelInputs{}) != uarch.E52670SNB().Power.PkgStatic {
		t.Error("idle estimate must equal static term")
	}
}
