package perfctr

import (
	"math"
	"testing"

	"hswsim/internal/sim"
)

func TestCoreCountersAdvance(t *testing.T) {
	var c Core
	// 1 second in C0 at 2.5 GHz, TSC 2.5 GHz, 7e9 inst/s, 10% stalls.
	c.Advance(sim.Second.Seconds(), 2.5, 2.5, 7e9, 0.1)
	s := c.Snapshot(sim.Second, 2.5e9)
	if s.TSC != 2500000000 {
		t.Fatalf("TSC = %d, want the node count passed in", s.TSC)
	}
	if s.APERF != 2500000000 {
		t.Fatalf("APERF = %d", s.APERF)
	}
	if s.Instructions != 7000000000 {
		t.Fatalf("instructions = %d", s.Instructions)
	}
	if s.StallCycles != 250000000 {
		t.Fatalf("stalls = %d", s.StallCycles)
	}
}

func TestIntervalDerivations(t *testing.T) {
	var c Core
	a := c.Snapshot(0, 0)
	// Half the time at 2.5 GHz, half idle (no Advance).
	c.Advance((sim.Second / 2).Seconds(), 2.5, 2.5, 5e9, 0.2)
	b := c.Snapshot(sim.Second, 0)
	iv := Delta(a, b)
	if f := iv.FreqGHz(); math.Abs(f-1.25) > 1e-9 {
		t.Fatalf("wall-time frequency = %v, want 1.25 (50%% duty)", f)
	}
	if f := iv.EffectiveFreqGHz(2.5); math.Abs(f-2.5) > 1e-9 {
		t.Fatalf("APERF/MPERF frequency = %v, want 2.5 (C0-weighted)", f)
	}
	if g := iv.GIPS(); math.Abs(g-2.5) > 1e-9 {
		t.Fatalf("GIPS = %v, want 2.5", g)
	}
	if ipc := iv.IPC(); math.Abs(ipc-2.0) > 1e-9 {
		t.Fatalf("IPC = %v, want 2.0", ipc)
	}
	if s := iv.StallFrac(); math.Abs(s-0.2) > 1e-9 {
		t.Fatalf("stall fraction = %v, want 0.2", s)
	}
}

func TestIntervalDegenerate(t *testing.T) {
	var iv Interval
	if iv.FreqGHz() != 0 || iv.GIPS() != 0 || iv.IPC() != 0 || iv.StallFrac() != 0 || iv.EffectiveFreqGHz(2.5) != 0 {
		t.Fatal("zero interval must derive zeros")
	}
}

func TestUncoreCounter(t *testing.T) {
	var u Uncore
	a := u.Snapshot(0)
	u.Advance((10 * sim.Second).Seconds(), 3.0)
	b := u.Snapshot(10 * sim.Second)
	if f := UncoreFreqGHz(a, b); math.Abs(f-3.0) > 1e-9 {
		t.Fatalf("uncore frequency = %v, want 3.0", f)
	}
	// Halted uncore: counter frozen.
	u.Advance(sim.Second.Seconds(), 0)
	c := u.Snapshot(11 * sim.Second)
	if c.Clock != b.Clock {
		t.Fatal("halted uncore advanced its clock")
	}
	if UncoreFreqGHz(b, b) != 0 {
		t.Fatal("zero-interval uncore frequency must be 0")
	}
}

func TestFrequencyMeasurementDetectsSwitch(t *testing.T) {
	// The modified-FTaLaT verification: a 20 us busy-wait cycle count
	// distinguishes 1.2 from 1.3 GHz.
	var c Core
	c.Advance((20 * sim.Microsecond).Seconds(), 1.2, 2.5, 1.2e9, 0)
	s1 := c.Snapshot(20*sim.Microsecond, 0)
	c.Advance((20 * sim.Microsecond).Seconds(), 1.3, 2.5, 1.3e9, 0)
	s2 := c.Snapshot(40*sim.Microsecond, 0)
	f1 := Delta(Snapshot{}, s1).FreqGHz()
	f2 := Delta(s1, s2).FreqGHz()
	if math.Abs(f1-1.2) > 0.01 || math.Abs(f2-1.3) > 0.01 {
		t.Fatalf("20us windows measured %v / %v, want 1.2 / 1.3", f1, f2)
	}
}
