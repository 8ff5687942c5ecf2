package fivr

import (
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func testPM() *uarch.PowerModel {
	pm := uarch.E52680v3().Power
	return &pm
}

func TestVoltageCurveMonotone(t *testing.T) {
	r := NewRegulator(testPM(), 0, 21, sim.NewRNG(1))
	prev := 0.0
	for f := uarch.MHz(1200); f <= 3300; f += 100 {
		v := r.VoltageFor(f)
		if v < prev {
			t.Fatalf("voltage not monotone at %v: %v < %v", f, v, prev)
		}
		prev = v
	}
	if v := r.VoltageFor(1200); v != testPM().VMin {
		t.Errorf("V(1.2GHz) = %v, want VMin %v", v, testPM().VMin)
	}
	if v := r.VoltageFor(9000); v != testPM().VMax {
		t.Errorf("V clamp failed: %v", v)
	}
}

func TestVoltageOffsetShiftsCurve(t *testing.T) {
	lo := NewRegulator(testPM(), 0, 21, sim.NewRNG(1))
	hi := NewRegulator(testPM(), 0.01, 21, sim.NewRNG(1))
	if hi.VoltageFor(2500)-lo.VoltageFor(2500) < 0.009 {
		t.Fatalf("offset not applied: %v vs %v", hi.VoltageFor(2500), lo.VoltageFor(2500))
	}
	if hi.offset != 0.01 {
		t.Fatalf("offset = %v", hi.offset)
	}
}

func TestSetFrequencyUpdatesVoltsAndCostsTime(t *testing.T) {
	r := NewRegulator(testPM(), 0, 21, sim.NewRNG(2))
	before := r.Volts()
	d := r.SetFrequency(2500)
	if r.Volts() <= before {
		t.Fatalf("voltage did not rise for higher frequency")
	}
	// ~21us +/- 20%
	if d < 15*sim.Microsecond || d > 27*sim.Microsecond {
		t.Fatalf("switching time %v outside expected band", d)
	}
}

func TestSwitchingTimeJitterIsDeterministic(t *testing.T) {
	a := NewRegulator(testPM(), 0, 21, sim.NewRNG(7))
	b := NewRegulator(testPM(), 0, 21, sim.NewRNG(7))
	for i := 0; i < 10; i++ {
		if a.SetFrequency(2000) != b.SetFrequency(2000) {
			t.Fatalf("same-seed regulators diverged at switch %d", i)
		}
	}
}

func TestMBVRStates(t *testing.T) {
	m := NewMBVR()
	if m.Lanes() != 3 {
		t.Fatalf("lanes = %d, want 3 (Haswell-EP boards)", m.Lanes())
	}
	if s := m.UpdateLoad(10); s != MBVRLight {
		t.Errorf("10W -> %v, want light", s)
	}
	if s := m.UpdateLoad(60); s != MBVRNormal {
		t.Errorf("60W -> %v, want normal", s)
	}
	if s := m.UpdateLoad(130); s != MBVRFull {
		t.Errorf("130W -> %v, want full", s)
	}
	if m.State() != MBVRFull {
		t.Errorf("State() = %v", m.State())
	}
}

func TestMBVRSVID(t *testing.T) {
	m := NewMBVR()
	if err := m.SetSVID(1.7); err != nil {
		t.Fatal(err)
	}
	if m.VCCin() != 1.7 {
		t.Fatalf("VCCin = %v", m.VCCin())
	}
	if err := m.SetSVID(0.9); err == nil {
		t.Fatal("out-of-range SVID accepted")
	}
	if err := m.SetSVID(3.0); err == nil {
		t.Fatal("out-of-range SVID accepted")
	}
}

func TestMBVREfficiencyShape(t *testing.T) {
	m := NewMBVR()
	m.UpdateLoad(10)
	effLight := m.Efficiency(10)
	m.UpdateLoad(60)
	effNorm := m.Efficiency(60)
	m.UpdateLoad(250)
	effFull := m.Efficiency(250)
	if !(effNorm > effLight && effNorm > effFull) {
		t.Fatalf("efficiency should peak in normal band: %v %v %v", effLight, effNorm, effFull)
	}
	for _, w := range []float64{0.5, 5, 50, 500} {
		m.UpdateLoad(w)
		e := m.Efficiency(w)
		if e < 0.5 || e > 1 {
			t.Fatalf("efficiency %v at %vW out of physical range", e, w)
		}
	}
}

func TestCoreOffsetsSocketBias(t *testing.T) {
	o0 := CoreOffsets(12, 0, 42)
	o1 := CoreOffsets(12, 1, 42)
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Paper Section III: "the cores of the second processor have a
	// higher voltage than the cores of the first processor".
	if mean(o1) <= mean(o0) {
		t.Fatalf("socket 1 mean offset %v should exceed socket 0 %v", mean(o1), mean(o0))
	}
	// Deterministic.
	again := CoreOffsets(12, 0, 42)
	for i := range o0 {
		if o0[i] != again[i] {
			t.Fatalf("offsets not deterministic at core %d", i)
		}
	}
	// Different seeds give different silicon.
	other := CoreOffsets(12, 0, 43)
	same := true
	for i := range o0 {
		if o0[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical parts")
	}
}

func TestMBVRStateStringer(t *testing.T) {
	for _, s := range []MBVRState{MBVRLight, MBVRNormal, MBVRFull, MBVRState(9)} {
		if s.String() == "" {
			t.Fatalf("empty stringer for %d", int(s))
		}
	}
}
