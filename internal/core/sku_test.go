package core

import (
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/fivr"
	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// TestOtherDieSKUs runs full platforms on the 8-core (single-ring) and
// 18-core (8+10 dual-ring) dies, exercising the other two Figure 1
// topologies end to end.
func TestOtherDieSKUs(t *testing.T) {
	for _, spec := range []*uarch.Spec{uarch.E52630v3(), uarch.E52699v3()} {
		spec := spec
		t.Run(spec.Model, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Spec = spec
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sys.CPUs() != 2*spec.Cores {
				t.Fatalf("CPUs = %d", sys.CPUs())
			}
			for cpu := 0; cpu < sys.CPUs(); cpu++ {
				if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
					t.Fatal(err)
				}
			}
			sys.RequestTurbo()
			sys.Run(2 * sim.Second)
			iv := sys.MeasureCore(0, sim.Second)
			f := iv.FreqGHz()
			// Sustained clock must sit between the AVX base and the AVX
			// all-core turbo, and the package near its TDP.
			if f < spec.AVXBaseMHz.GHz()-0.05 || f > spec.TurboLimit(spec.Cores, true).GHz() {
				t.Errorf("sustained clock %.2f outside [%v, %v]", f,
					spec.AVXBaseMHz, spec.TurboLimit(spec.Cores, true))
			}
			pkg := sys.Socket(0).LastPkgPowerW()
			if pkg < spec.Power.TDP*0.85 || pkg > spec.Power.TDP*1.12 {
				t.Errorf("package power %.1f vs TDP %.0f", pkg, spec.Power.TDP)
			}
		})
	}
}

// TestDRAMSaturationScalesWithDie checks the Figure 8 saturation story
// on the 18-core part: the same four DDR4 channels saturate even
// earlier relative to the core count.
func TestDRAMSaturationScalesWithDie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Spec = uarch.E52699v3()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < cfg.Spec.Cores; cpu++ { // socket 0 only
		if err := sys.AssignKernel(cpu, workload.MemStream(), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.SetPStateAll(cfg.Spec.BaseMHz)
	sys.Run(100 * sim.Millisecond)
	total := 0.0
	before := make([]uint64, cfg.Spec.Cores)
	for cpu := 0; cpu < cfg.Spec.Cores; cpu++ {
		before[cpu] = sys.Core(cpu).Snapshot().Instructions
	}
	sys.Run(sim.Second)
	for cpu := 0; cpu < cfg.Spec.Cores; cpu++ {
		di := sys.Core(cpu).Snapshot().Instructions - before[cpu]
		total += float64(di) * 8 / 1e9 // 8 B/inst stream kernel
	}
	if total < 55 || total > 68.2 {
		t.Errorf("18-core DRAM bandwidth = %.1f GB/s, want saturated ~62", total)
	}
}

// TestUncoreRatioLimitMSR caps the uncore via MSR_UNCORE_RATIO_LIMIT
// and verifies UFS obeys it — the control interface the paper wished
// for ("neither the actual number of this MSR nor the encoded
// information is available").
func TestUncoreRatioLimitMSR(t *testing.T) {
	s := newSys(t)
	if err := s.AssignKernel(0, workload.MemStream(), 2); err != nil {
		t.Fatal(err)
	}
	s.SetPStateAll(2500)
	s.Run(20 * sim.Millisecond)
	if got := s.MeasureUncoreGHz(0, 50*sim.Millisecond); got < 2.9 {
		t.Fatalf("memory stalls should pin the uncore at 3.0, got %.2f", got)
	}
	// Cap the uncore at 20 x 100 MHz.
	if err := s.WriteMSR(0, msr.MSR_UNCORE_RATIO_LIMIT, 20|(12<<8)); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time20ms())
	if got := s.MeasureUncoreGHz(0, 50*sim.Millisecond); got > 2.05 {
		t.Fatalf("uncore cap ignored: %.2f GHz", got)
	}
	// Restore.
	if err := s.WriteMSR(0, msr.MSR_UNCORE_RATIO_LIMIT, 30|(12<<8)); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time20ms())
	if got := s.MeasureUncoreGHz(0, 50*sim.Millisecond); got < 2.9 {
		t.Fatalf("uncore cap not released: %.2f GHz", got)
	}
}

func time20ms() sim.Time { return 20 * sim.Millisecond }

// TestResidencyAccounting checks the cpufreq-stats-style accounting:
// FIRESTARTER under TDP concentrates its running time in the sustained
// bins, and an idle core shows pure C6 residency.
func TestResidencyAccounting(t *testing.T) {
	s := newSys(t)
	for cpu := 0; cpu < 12; cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(sim.Second)
	s.ResetResidency(0)
	s.Run(2 * sim.Second)
	r := s.CoreResidency(0)
	if f := r.C0Frac(); f < 0.999 {
		t.Errorf("busy core C0 fraction = %.3f, want ~1", f)
	}
	dom := r.DominantPState()
	if dom < 2100 || dom > 2400 {
		t.Errorf("dominant p-state = %v, want the TDP-sustained band", dom)
	}
	// Accounted time matches the window.
	if tot := r.Total(); tot < 19*sim.Second/10 || tot > 21*sim.Second/10 {
		t.Errorf("accounted %v over a 2s window", tot)
	}
	if r.String() == "" || r.String() == "no residency recorded" {
		t.Error("render broken")
	}
	// Idle core on the other socket: all C6, no p-state time.
	idle := s.CoreResidency(23)
	if c6 := idle.CState[cstate.C6]; c6 < 29*sim.Second/10 {
		t.Errorf("idle core C6 residency = %v over 3s", c6)
	}
	if len(idle.PState) != 0 {
		t.Errorf("idle core has p-state residency: %v", idle.PState)
	}
	// Out-of-range CPU yields an empty report; reset is harmless.
	if s.CoreResidency(99).Total() != 0 {
		t.Error("bad cpu returned residency")
	}
	s.ResetResidency(99)
}

// TestPCPSDisabledSharesClock verifies the pre-Haswell single frequency
// domain: with per-core p-states off, every core runs at the fastest
// request.
func TestPCPSDisabledSharesClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PCPSEnabled = false
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignKernel(1, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.SetPState(0, 1400)
	s.SetPState(1, 2200)
	s.Run(10 * sim.Millisecond)
	if f0, f1 := s.CoreFreqMHz(0), s.CoreFreqMHz(1); f0 != 2200 || f1 != 2200 {
		t.Fatalf("shared domain: core0 %v core1 %v, want both at the 2.2 GHz max request", f0, f1)
	}
	// With PCPS on, the same requests land per core.
	s2, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.AssignKernel(1, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s2.SetPState(0, 1400)
	s2.SetPState(1, 2200)
	s2.Run(10 * sim.Millisecond)
	if f0, f1 := s2.CoreFreqMHz(0), s2.CoreFreqMHz(1); f0 != 1400 || f1 != 2200 {
		t.Fatalf("PCPS: core0 %v core1 %v, want 1.4/2.2", f0, f1)
	}
}

// TestPROCHOTThermalThrottle simulates a cooling failure: with hot
// inlet air the package trips PROCHOT and sheds clocks below even the
// AVX base until the die temperature holds at the limit.
func TestPROCHOTThermalThrottle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AmbientC = 70 // failed cooling: steady temp would be ~112 C
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(8 * sim.Second) // let the thermal RC settle
	iv := s.MeasureCore(0, 2*sim.Second)
	if f := iv.FreqGHz(); f >= 2.1 {
		t.Errorf("PROCHOT should push below the AVX base: %.2f GHz", f)
	}
	temp := s.Socket(0).Power.TempC()
	if temp > 96 {
		t.Errorf("temperature ran away: %.1f C", temp)
	}
	if s.Socket(0).PCU.ThermalBins() == 0 {
		t.Error("no thermal throttling engaged")
	}
	// Healthy cooling: no thermal bins at all.
	h := newSys(t)
	for cpu := 0; cpu < h.CPUs(); cpu++ {
		if err := h.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	h.RequestTurbo()
	h.Run(5 * sim.Second)
	if h.Socket(0).PCU.ThermalBins() != 0 {
		t.Error("thermal throttle engaged under normal cooling")
	}
}

// modeledMSRs lists the 13 registers the platform models, in ascending
// register order. Four of them are writable: IA32_PERF_CTL,
// IA32_ENERGY_PERF_BIAS, MSR_PKG_POWER_LIMIT and MSR_UNCORE_RATIO_LIMIT.
var modeledMSRs = []uint32{
	msr.IA32_TIME_STAMP_COUNTER, msr.MSR_PLATFORM_INFO, msr.IA32_MPERF, msr.IA32_APERF,
	msr.IA32_PERF_STATUS, msr.IA32_PERF_CTL, msr.IA32_ENERGY_PERF_BIAS,
	msr.MSR_RAPL_POWER_UNIT, msr.MSR_PKG_POWER_LIMIT, msr.MSR_PKG_ENERGY_STATUS,
	msr.MSR_DRAM_ENERGY_STATUS, msr.MSR_UNCORE_RATIO_LIMIT, msr.MSR_PP0_ENERGY_STATUS,
}

// TestMSRSurfaceSweep exercises every implemented register on every
// logical CPU plus out-of-range CPUs: reads/writes either succeed or
// fault cleanly, and never panic.
func TestMSRSurfaceSweep(t *testing.T) {
	s := newSys(t)
	for _, reg := range modeledMSRs {
		for _, cpu := range []int{0, 5, s.CPUs() - 1, s.CPUs(), -1, 9999} {
			v, err := s.ReadMSR(cpu, reg)
			valid := cpu >= 0 && cpu < s.CPUs()
			if !valid && err == nil && reg != msr.MSR_RAPL_POWER_UNIT && reg != msr.MSR_PLATFORM_INFO {
				// Global (package-invariant) registers may ignore the
				// cpu; everything per-cpu/per-socket must fault.
				t.Errorf("%s: read on bad cpu %d succeeded (%#x)", msr.Name(reg), cpu, v)
			}
			if valid && err != nil && reg != msr.MSR_PP0_ENERGY_STATUS {
				t.Errorf("%s: read on cpu %d faulted: %v", msr.Name(reg), cpu, err)
			}
		}
	}
	// Writes to read-only registers fault; writable ones accept.
	if err := s.WriteMSR(0, msr.MSR_RAPL_POWER_UNIT, 1); err == nil {
		t.Error("write to RAPL unit register succeeded")
	}
	if err := s.WriteMSR(0, msr.MSR_PLATFORM_INFO, 1); err == nil {
		t.Error("write to platform info succeeded")
	}
	if err := s.WriteMSR(0, msr.IA32_ENERGY_PERF_BIAS, 15); err != nil {
		t.Errorf("EPB write faulted: %v", err)
	}
	if err := s.WriteMSR(0, msr.MSR_PKG_ENERGY_STATUS, 0); err == nil {
		t.Error("write to energy counter succeeded")
	}
}

// TestRAPLCounterMonotoneThroughMSR reads the package energy counter
// repeatedly under load: it must be non-decreasing (modulo wraparound,
// unreachable in this window).
func TestRAPLCounterMonotoneThroughMSR(t *testing.T) {
	s := newSys(t)
	for cpu := 0; cpu < 12; cpu++ {
		if err := s.AssignKernel(cpu, workload.Compute(), 2); err != nil {
			t.Fatal(err)
		}
	}
	prev := uint64(0)
	for i := 0; i < 20; i++ {
		s.Run(50 * sim.Millisecond)
		v, err := s.ReadMSR(0, msr.MSR_PKG_ENERGY_STATUS)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("energy counter went backwards: %d -> %d", prev, v)
		}
		if i > 0 && v == prev {
			t.Fatalf("energy counter frozen at %d under load", v)
		}
		prev = v
	}
}

// TestMBVRFollowsLoad checks that the mainboard regulator's power state
// tracks the processor's estimated draw (Section II-B).
func TestMBVRFollowsLoad(t *testing.T) {
	s := newSys(t)
	s.Run(100 * sim.Millisecond)
	if st := s.Socket(0).MBVR().State(); st == fivr.MBVRFull {
		t.Errorf("idle socket in %v", st)
	}
	for cpu := 0; cpu < 12; cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(500 * sim.Millisecond)
	if st := s.Socket(0).MBVR().State(); st != fivr.MBVRFull {
		t.Errorf("TDP-loaded socket in %v, want full-current state", st)
	}
	if s.Socket(1).MBVR().State() == fivr.MBVRFull {
		t.Error("idle socket 1 should not be in the full-current state")
	}
}

func TestMeasurementGuards(t *testing.T) {
	s := newSys(t)
	if got := s.MeasureUncoreGHz(9, sim.Millisecond); got != 0 {
		t.Errorf("bad socket uncore measurement = %v", got)
	}
	if _, err := s.ReadRAPL(9); err == nil {
		t.Error("bad socket RAPL read accepted")
	}
	if iv := s.MeasureCore(999, sim.Millisecond); iv.Cycles != 0 {
		t.Error("bad cpu measurement returned data")
	}
}

// TestFourSocketSystem exercises a >2-socket build: the paper's node is
// dual-socket, but the platform model generalizes.
func TestFourSocketSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sockets = 4
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPUs() != 48 {
		t.Fatalf("CPUs = %d, want 48", s.CPUs())
	}
	// Load socket 2 only; all others stay in package sleep... no — an
	// active core anywhere blocks package sleep, so the other three
	// sockets sit in PC0 with idle uncores at their interlocked points.
	for cpu := 24; cpu < 36; cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.SetPStateAll(2100)
	s.Run(sim.Second)
	iv := s.MeasureCore(24, sim.Second)
	if f := iv.FreqGHz(); f < 2.05 || f > 2.15 {
		t.Errorf("socket-2 clock = %.2f, want 2.1", f)
	}
	for _, sock := range []int{0, 1, 3} {
		if s.Socket(sock).PkgCState() != cstate.PC0 {
			t.Errorf("socket %d in %v while socket 2 is active", sock, s.Socket(sock).PkgCState())
		}
	}
	if s.SocketOf(24) != 2 || s.SocketOf(47) != 3 {
		t.Error("SocketOf mapping wrong")
	}
}
