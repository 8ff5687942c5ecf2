package core

import (
	"errors"
	"math"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/msr"
	"hswsim/internal/obs"
	"hswsim/internal/pcu"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

func newSys(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIdleNodePowerMatchesTableII(t *testing.T) {
	s := newSys(t)
	s.Run(2 * sim.Second)
	ac := s.Meter().Average(sim.Second, 2*sim.Second)
	if math.Abs(ac-261.5) > 5 {
		t.Fatalf("idle AC = %.1f W, want 261.5 +/- 5 (Table II)", ac)
	}
}

func TestIdlePackagesReachPC6(t *testing.T) {
	s := newSys(t)
	s.Run(sim.Second)
	for i := 0; i < s.Sockets(); i++ {
		if got := s.Socket(i).PkgCState(); got != cstate.PC6 {
			t.Errorf("idle socket %d in %v, want PC6", i, got)
		}
		if s.Socket(i).UncoreMHz() != 0 {
			t.Errorf("idle socket %d uncore running at %v, want halted", i, s.Socket(i).UncoreMHz())
		}
	}
}

func TestActiveCoreAnywhereBlocksPackageSleep(t *testing.T) {
	// Section V-A: package c-states are not used while any core in the
	// system is active — even on the other processor.
	s := newSys(t)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second)
	if got := s.Socket(1).PkgCState(); got != cstate.PC0 {
		t.Fatalf("socket 1 entered %v while socket 0 has an active core", got)
	}
	if s.Socket(1).UncoreMHz() == 0 {
		t.Fatal("socket 1 uncore halted while the system is active")
	}
}

func TestFirestarterHitsTDPAndAVXWindow(t *testing.T) {
	// Table IV, turbo setting: sustained core clock between AVX base
	// and ~2.4 GHz, uncore coupled nearby, package power pinned at TDP.
	s := newSys(t)
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(2 * sim.Second) // settle
	iv := s.MeasureCore(0, 2*sim.Second)
	f := iv.FreqGHz()
	if f < 2.1 || f > 2.45 {
		t.Errorf("sustained FIRESTARTER core clock = %.2f GHz, want in (2.1, 2.45) — opportunistic, TDP-limited", f)
	}
	unc := s.MeasureUncoreGHz(0, sim.Second)
	if unc < f-0.3 || unc > f+0.5 {
		t.Errorf("sustained uncore %.2f vs core %.2f: want coupled (Table IV)", unc, f)
	}
	pkg := s.Socket(0).LastPkgPowerW()
	if pkg < 110 || pkg > 126 {
		t.Errorf("package power %.1f W, want pinned near the 120 W TDP", pkg)
	}
}

func TestFirestarterAt21GHzNoThrottle(t *testing.T) {
	// Table IV: at 2.1 GHz and below, both processors stay under 120 W,
	// the measured clock equals the setting and the uncore runs at 3.0.
	s := newSys(t)
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.SetPStateAll(2100)
	s.Run(2 * sim.Second)
	iv := s.MeasureCore(0, 2*sim.Second)
	if f := iv.FreqGHz(); math.Abs(f-2.1) > 0.02 {
		t.Errorf("core clock = %.3f GHz, want 2.1 exactly (no TDP pressure)", f)
	}
	if unc := s.MeasureUncoreGHz(0, sim.Second); math.Abs(unc-3.0) > 0.05 {
		t.Errorf("uncore = %.2f GHz, want 3.0 (max turbo)", unc)
	}
	if pkg := s.Socket(0).LastPkgPowerW(); pkg >= 120 {
		t.Errorf("package power %.1f W, want < 120 (paper: < 120 W by RAPL)", pkg)
	}
}

func TestUncoreMapSingleThreadNoStalls(t *testing.T) {
	// Table III rows: while(1) on cpu 0 of processor 0.
	s := newSys(t)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		set                  uarch.MHz
		wantActive, wantPass float64
	}{
		{2500, 2.2, 2.1},
		{2300, 2.0, 1.9},
		{1900, 1.65, 1.55},
		{1200, 1.2, 1.2},
	} {
		s.SetPStateAll(row.set)
		s.Run(5 * sim.Millisecond) // let the grid apply it
		active := s.MeasureUncoreGHz(0, 100*sim.Millisecond)
		passive := s.MeasureUncoreGHz(1, 100*sim.Millisecond)
		if math.Abs(active-row.wantActive) > 0.05 {
			t.Errorf("setting %v: active uncore %.2f, want %.2f", row.set, active, row.wantActive)
		}
		if math.Abs(passive-row.wantPass) > 0.05 {
			t.Errorf("setting %v: passive uncore %.2f, want %.2f", row.set, passive, row.wantPass)
		}
	}
}

func TestPStateTransitionLatencyBounds(t *testing.T) {
	// Figure 3: latencies between ~21 us and ~524 us on Haswell-EP.
	s := newSys(t)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.SetPState(0, 1200)
	s.Run(5 * sim.Millisecond)
	cur := uarch.MHz(1200)
	for i := 0; i < 50; i++ {
		// Request at pseudo-random offsets.
		s.Run(sim.Time(100+37*i%400) * sim.Microsecond)
		if cur == 1200 {
			cur = 1300
		} else {
			cur = 1200
		}
		if err := s.SetPState(0, cur); err != nil {
			t.Fatal(err)
		}
		s.Run(1200 * sim.Microsecond) // enough for any transition
		tr, ok := s.Core(0).Domain().LastTransition()
		if !ok {
			t.Fatalf("transition %d never completed", i)
		}
		lat := tr.Latency()
		if lat < 15*sim.Microsecond || lat > 600*sim.Microsecond {
			t.Errorf("transition %d latency %v outside the Figure 3 envelope", i, lat)
		}
	}
}

func TestSameSocketCoresShareGrid(t *testing.T) {
	// Section VI-A: cores on one processor change frequency at the same
	// time; cores on different processors transition independently.
	s, err := NewSystem(func() Config { c := DefaultConfig(); c.GridJitter = 0; return c }())
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []int{0, 1, s.CPUs() - 1} {
		if err := s.AssignKernel(cpu, workload.BusyWait(), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.SetPStateAll(1200)
	s.Run(10 * sim.Millisecond)
	s.SetPStateAll(1300)
	s.Run(5 * sim.Millisecond)
	t0, ok0 := s.Core(0).Domain().LastTransition()
	t1, ok1 := s.Core(1).Domain().LastTransition()
	tr, okr := s.Core(s.CPUs() - 1).Domain().LastTransition()
	if !ok0 || !ok1 || !okr {
		t.Fatal("transitions missing")
	}
	if t0.GrantedAt != t1.GrantedAt {
		t.Errorf("same-socket cores granted at %v and %v, want identical", t0.GrantedAt, t1.GrantedAt)
	}
	if t0.GrantedAt == tr.GrantedAt {
		t.Errorf("different sockets granted at the same instant %v, want independent grids", t0.GrantedAt)
	}
}

func TestWakeLatencyScenarios(t *testing.T) {
	s := newSys(t)
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Millisecond)

	// Local C6 wake.
	if err := s.SleepCore(1, cstate.C6); err != nil {
		t.Fatal(err)
	}
	res, err := s.WakeCore(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != cstate.Local {
		t.Errorf("scenario = %v, want local", res.Scenario)
	}
	if us := res.Latency.Micros(); us < 5 || us > 25 {
		t.Errorf("local C6 wake = %.1f us, want O(10 us), far below the 133 us ACPI figure", us)
	}
	s.Run(sim.Millisecond)
	if s.CoreCState(1) != cstate.C0 {
		t.Fatal("wakee did not reach C0")
	}

	// Remote-idle wake: the whole system must be idle so the remote
	// package sinks into package sleep; the waker then self-wakes and
	// immediately signals the wakee (the paper's measurement pattern).
	if err := s.AssignKernel(0, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignKernel(1, nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * sim.Millisecond) // both packages reach PC6
	if s.Socket(1).PkgCState() != cstate.PC6 {
		t.Fatalf("socket 1 in %v, want PC6 before the remote-idle wake", s.Socket(1).PkgCState())
	}
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil { // waker self-wakes
		t.Fatal(err)
	}
	remote := s.CPUs() - 1
	res2, err := s.WakeCore(0, remote, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Scenario != cstate.RemoteIdle {
		t.Errorf("scenario = %v, want remote idle (socket 1 was in package sleep)", res2.Scenario)
	}
	if res2.PkgState != cstate.PC6 {
		t.Errorf("package state = %v, want PC6", res2.PkgState)
	}
	if res2.Latency <= res.Latency {
		t.Errorf("remote-idle wake %v must exceed local wake %v", res2.Latency, res.Latency)
	}
	s.Run(sim.Millisecond)

	// Now socket 1 has an active core: another wake there is
	// remote-active and faster than remote-idle.
	if err := s.SleepCore(remote-1, cstate.C6); err != nil {
		t.Fatal(err)
	}
	res3, err := s.WakeCore(0, remote-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Scenario != cstate.RemoteActive {
		t.Errorf("scenario = %v, want remote active", res3.Scenario)
	}
	if res3.Latency >= res2.Latency {
		t.Errorf("remote-active %v should beat remote-idle %v", res3.Latency, res2.Latency)
	}
}

func TestWakeErrors(t *testing.T) {
	s := newSys(t)
	if _, err := s.WakeCore(0, 1, nil); err == nil {
		t.Error("sleeping waker accepted")
	}
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WakeCore(0, 0, nil); err == nil {
		t.Error("waking an awake core accepted")
	}
	if _, err := s.WakeCore(0, 999, nil); err == nil {
		t.Error("bad wakee accepted")
	}
	if err := s.SleepCore(0, cstate.C6); err == nil {
		t.Error("sleeping a busy core accepted")
	}
	if err := s.SleepCore(1, cstate.C0); err == nil {
		t.Error("C0 as idle state accepted")
	}
}

func TestMSRSurface(t *testing.T) {
	s := newSys(t)
	// EPB write routes to the PCU input.
	if err := s.WriteMSR(3, msr.IA32_ENERGY_PERF_BIAS, 0); err != nil {
		t.Fatal(err)
	}
	if got := pcu.EPBFromBits(s.Core(3).epb); got != pcu.EPBPerformance {
		t.Errorf("EPB bits did not reach the core: %v", got)
	}
	// PP0 is a #GP on Haswell-EP (Section IV).
	if _, err := s.ReadMSR(0, msr.MSR_PP0_ENERGY_STATUS); err == nil {
		t.Error("PP0 read succeeded on Haswell-EP")
	}
	// Platform info exposes the base ratio.
	v, err := s.ReadMSR(0, msr.MSR_PLATFORM_INFO)
	if err != nil || (v>>8)&0xFF != 25 {
		t.Errorf("platform info = %#x, %v", v, err)
	}
	// PERF_CTL write requests a p-state.
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMSR(0, msr.IA32_PERF_CTL, 18<<8); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * sim.Millisecond)
	if f := s.CoreFreqMHz(0); f != 1800 {
		t.Errorf("PERF_CTL 18 -> %v, want 1.8 GHz", f)
	}
	st, err := s.ReadMSR(0, msr.IA32_PERF_STATUS)
	if err != nil || (st>>8)&0xFF != 18 {
		t.Errorf("PERF_STATUS = %#x, %v", st, err)
	}
}

func TestUnimplementedRegisterFaults(t *testing.T) {
	s := newSys(t)
	if _, err := s.ReadMSR(0, 0xdead); err == nil {
		t.Fatal("read of unimplemented register succeeded")
	} else {
		var gp *msr.GPFault
		if !errors.As(err, &gp) || gp.Reg != 0xdead || gp.Write {
			t.Fatalf("wrong fault: %v", err)
		}
	}
	if err := s.WriteMSR(1, 0xdead, 1); err == nil {
		t.Fatal("write of unimplemented register succeeded")
	} else {
		var gp *msr.GPFault
		if !errors.As(err, &gp) || !gp.Write || gp.CPU != 1 {
			t.Fatalf("wrong fault: %v", err)
		}
	}
}

func TestRAPLThroughMSRs(t *testing.T) {
	s := newSys(t)
	for cpu := 0; cpu < 12; cpu++ {
		if err := s.AssignKernel(cpu, workload.Compute(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(500 * sim.Millisecond)
	a, err := s.ReadRAPL(0)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second)
	b, err := s.ReadRAPL(0)
	if err != nil {
		t.Fatal(err)
	}
	pkgW, dramW, err := s.RAPLPowerW(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pkgW < 30 || pkgW > 121 {
		t.Errorf("package power via MSRs = %.1f W, implausible", pkgW)
	}
	if dramW < 3 || dramW > 40 {
		t.Errorf("DRAM power via MSRs = %.1f W, implausible", dramW)
	}
	// Busy socket 0, idle socket 1: socket 1 draws much less.
	a1, _ := s.ReadRAPL(1)
	s.Run(sim.Second)
	b1, _ := s.ReadRAPL(1)
	pkg1, _, err := s.RAPLPowerW(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	if pkg1 >= pkgW/2 {
		t.Errorf("idle socket power %.1f vs busy %.1f: want clear separation", pkg1, pkgW)
	}
}

// TestRAPLPowerWInvalidWindow pins the silent-failure fix: a
// measurement window whose second reading is not strictly later must be
// a real error (and advance the obs counter), never a 0 W result that a
// rendered table would pass off as a measured idle package.
func TestRAPLPowerWInvalidWindow(t *testing.T) {
	s := newSys(t)
	s.Run(100 * sim.Millisecond)
	rd, err := s.ReadRAPL(0)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.RAPLWindowErrors.Value()
	if _, _, err := s.RAPLPowerW(rd, rd); err == nil {
		t.Fatal("zero-length RAPL window accepted")
	}
	s.Run(100 * sim.Millisecond)
	later, err := s.ReadRAPL(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RAPLPowerW(later, rd); err == nil {
		t.Fatal("reversed RAPL window accepted")
	}
	if got := obs.RAPLWindowErrors.Value(); got != before+2 {
		t.Fatalf("obs.RAPLWindowErrors = %d, want %d", got, before+2)
	}
	if p, d, err := s.RAPLPowerW(rd, later); err != nil || p <= 0 || d < 0 {
		t.Fatalf("valid window rejected: p=%v d=%v err=%v", p, d, err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, uarch.MHz, float64) {
		s, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.RequestTurbo()
		s.Run(2 * sim.Second)
		iv := s.MeasureCore(5, sim.Second)
		return iv.GIPS(), s.CoreFreqMHz(5), s.Meter().Average(2*sim.Second, 3*sim.Second)
	}
	g1, f1, m1 := run()
	g2, f2, m2 := run()
	if g1 != g2 || f1 != f2 || m1 != m2 {
		t.Fatalf("identical runs diverged: (%v,%v,%v) vs (%v,%v,%v)", g1, f1, m1, g2, f2, m2)
	}
}

func TestSocketAsymmetry(t *testing.T) {
	// Section III: processor 0 is less efficient; under identical load
	// it sustains a (slightly) lower frequency than processor 1.
	s := newSys(t)
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(3 * sim.Second)
	f0 := s.MeasureCore(0, 2*sim.Second).FreqGHz()
	f1 := s.MeasureCore(12, 2*sim.Second).FreqGHz()
	if f0 > f1+0.01 {
		t.Errorf("processor 0 (%.3f GHz) should not outrun processor 1 (%.3f GHz)", f0, f1)
	}
}

func TestHyperThreadingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HyperThreading = false
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
		t.Fatal(err)
	}
	s.SetPState(0, 2100)
	s.Run(sim.Second)
	iv := s.MeasureCore(0, sim.Second)
	// Single active core at 2.1 GHz: no TDP pressure, uncore at 3.0,
	// so the full unconstrained 1-thread IPC (~3.0) is reached — below
	// the HT value of ~3.3.
	if ipc := iv.IPC(); math.Abs(ipc-3.0) > 0.1 {
		t.Errorf("no-HT FIRESTARTER IPC = %.2f, want ~3.0 (1T, uncore at max)", ipc)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Sockets = 0
	if _, err := NewSystem(bad); err == nil {
		t.Error("zero sockets accepted")
	}
	bad = DefaultConfig()
	bad.Spec.Cores = 0
	if _, err := NewSystem(bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSandyBridgeImmediateTransitions(t *testing.T) {
	// Pre-Haswell parts carry out p-state requests immediately: latency
	// is just the ~10 us switching time, no 500 us grid.
	s, err := NewSystem(SandyBridgeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	s.SetPState(0, 1200)
	s.Run(10 * sim.Millisecond)
	s.Run(123 * sim.Microsecond) // arbitrary offset
	if err := s.SetPState(0, 1300); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Millisecond)
	tr, ok := s.Core(0).Domain().LastTransition()
	if !ok {
		t.Fatal("no transition")
	}
	if lat := tr.Latency(); lat > 15*sim.Microsecond {
		t.Errorf("SNB transition latency %v, want ~10 us (immediate)", lat)
	}
}

// TestSetPowerLimitWRange pins the 15-bit limit field's range: the
// ceiling, 4095.875 W, is programmed and reads back, and a limit the
// field cannot hold (4096 W and up would wrap: 4100 W packed to a 4 W
// limit), a negative one or a non-finite one is refused without
// touching the register, the PCU limit or the socket's power.
func TestSetPowerLimitWRange(t *testing.T) {
	s := newSys(t)
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.RequestTurbo()
	s.Run(20 * sim.Millisecond)

	if err := s.SetPowerLimitW(0, 4095.875); err != nil {
		t.Fatalf("4095.875 W refused: %v", err)
	}
	if v := readMSR(t, s, 0, msr.MSR_PKG_POWER_LIMIT); v != 0x7FFF|1<<15 {
		t.Fatalf("4095.875 W reads back %#x, want %#x", v, 0x7FFF|1<<15)
	}
	if w := s.Socket(0).PCU.TDPWatts(); w != 4095.875 {
		t.Fatalf("4095.875 W programs a %v W PCU limit", w)
	}
	if err := s.SetPowerLimitW(0, 0); err != nil {
		t.Fatal(err)
	}

	for _, w := range []float64{4096, 4100, 5000, math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		ref, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		raw := readMSR(t, n, 0, msr.MSR_PKG_POWER_LIMIT)
		if err := n.SetPowerLimitW(0, w); err == nil {
			t.Errorf("%v W accepted", w)
		}
		if v := readMSR(t, n, 0, msr.MSR_PKG_POWER_LIMIT); v != raw {
			t.Errorf("refused %v W changed the register: %#x, was %#x", w, v, raw)
		}
		if got, want := n.Socket(0).PCU.TDPWatts(), ref.Socket(0).PCU.TDPWatts(); got != want {
			t.Errorf("refused %v W changed the PCU limit: %v W, want %v W", w, got, want)
		}
		ref.Run(200 * sim.Millisecond)
		n.Run(200 * sim.Millisecond)
		if got, want := n.Socket(0).LastPkgPowerW(), ref.Socket(0).LastPkgPowerW(); got != want {
			t.Errorf("refused %v W moved socket 0 to %.1f W, want %.1f W", w, got, want)
		}
		ref.Release()
		n.Release()
	}
}
