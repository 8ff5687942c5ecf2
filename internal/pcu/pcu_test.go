package pcu

import (
	"reflect"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

func newPCU() *PCU {
	return New(DefaultConfig(uarch.E52680v3(), 0, 0))
}

func activeCores(n, total int, req uarch.MHz, avx bool) []CoreTelemetry {
	cs := make([]CoreTelemetry, total)
	for i := range cs {
		cs[i] = CoreTelemetry{EPB: EPBBalanced}
		if i < n {
			cs[i].Active = true
			cs[i].RequestMHz = req
			cs[i].AVXNow = avx
		}
	}
	return cs
}

func TestEPBClassification(t *testing.T) {
	// Paper Section II-C: 0 performance, 1-7 balanced, 8-15 saving.
	for v := uint64(0); v <= 15; v++ {
		got := EPBFromBits(v)
		var want EPB
		switch {
		case v == 0:
			want = EPBPerformance
		case v <= 7:
			want = EPBBalanced
		default:
			want = EPBPowerSave
		}
		if got != want {
			t.Errorf("EPB bits %d -> %v, want %v", v, got, want)
		}
	}
	if EPBPerformance.String() != "performance" || EPB(3).String() != "balanced" || EPB(12).String() != "energy saving" {
		t.Error("EPB stringer wrong")
	}
}

func TestGridArithmetic(t *testing.T) {
	p := New(DefaultConfig(uarch.E52680v3(), 0, 137*sim.Microsecond))
	if g := p.GridPeriod(); g != 500*sim.Microsecond {
		t.Fatalf("grid period = %v, want 500us", g)
	}
	// Before the phase: first opportunity is the phase itself.
	if got := p.NextOpportunity(0); got != 137*sim.Microsecond {
		t.Errorf("NextOpportunity(0) = %v", got)
	}
	// Exactly on a grid point.
	at := 137*sim.Microsecond + 2*500*sim.Microsecond
	if got := p.NextOpportunity(at); got != at {
		t.Errorf("on-grid NextOpportunity = %v, want %v", got, at)
	}
	// Just after a grid point: next one.
	if got := p.NextOpportunity(at + 1); got != at+500*sim.Microsecond {
		t.Errorf("NextOpportunity just after grid = %v", got)
	}
	// Pre-Haswell: immediate.
	snb := New(DefaultConfig(uarch.E52670SNB(), 0, 0))
	if got := snb.NextOpportunity(12345); got != 12345 {
		t.Errorf("SNB NextOpportunity = %v, want immediate", got)
	}
}

func TestIdleCoresParkAtMin(t *testing.T) {
	p := newPCU()
	dec := p.Tick(0, Telemetry{Cores: activeCores(0, 12, 0, false), PkgPowerW: 15})
	for i, f := range dec.CoreTargetMHz {
		if f != 1200 {
			t.Fatalf("idle core %d target %v, want 1.2 GHz", i, f)
		}
	}
}

func TestTurboLadderByActiveCount(t *testing.T) {
	spec := uarch.E52680v3()
	p := newPCU()
	turbo := spec.TurboSettingMHz()
	// One active core, low power: full single-core turbo.
	dec := p.Tick(0, Telemetry{Cores: activeCores(1, 12, turbo, false), PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 3300 {
		t.Errorf("1-core turbo = %v, want 3.3 GHz", dec.CoreTargetMHz[0])
	}
	// All cores active: all-core turbo.
	dec = p.Tick(500*sim.Microsecond, Telemetry{Cores: activeCores(12, 12, turbo, false), PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 2900 {
		t.Errorf("12-core turbo = %v, want 2.9 GHz", dec.CoreTargetMHz[0])
	}
}

func TestAVXLadderAndRelax(t *testing.T) {
	spec := uarch.E52680v3()
	p := newPCU()
	turbo := spec.TurboSettingMHz()
	// AVX active on all cores: AVX all-core turbo 2.8.
	dec := p.Tick(0, Telemetry{Cores: activeCores(12, 12, turbo, true), PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 2800 {
		t.Errorf("AVX 12-core turbo = %v, want 2.8 GHz", dec.CoreTargetMHz[0])
	}
	if !dec.AVXMode[0] {
		t.Error("core must be in AVX mode")
	}
	// 0.5 ms after the last AVX op: still in AVX mode (1 ms hold).
	cores := activeCores(12, 12, turbo, false)
	dec = p.Tick(500*sim.Microsecond, Telemetry{Cores: cores, PkgPowerW: 40})
	if !dec.AVXMode[0] || dec.CoreTargetMHz[0] != 2800 {
		t.Errorf("0.5ms after AVX: mode=%v f=%v, want AVX mode at 2.8", dec.AVXMode[0], dec.CoreTargetMHz[0])
	}
	// 1.5 ms after: back to non-AVX operation.
	dec = p.Tick(1500*sim.Microsecond, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.AVXMode[0] || dec.CoreTargetMHz[0] != 2900 {
		t.Errorf("1.5ms after AVX: mode=%v f=%v, want non-AVX 2.9", dec.AVXMode[0], dec.CoreTargetMHz[0])
	}
}

func TestEPBPerformanceEnablesTurboAtBase(t *testing.T) {
	// Section II-C: "When setting EPB to performance, turbo mode will be
	// active even when the base frequency is selected."
	p := newPCU()
	cores := activeCores(1, 12, 2500, false)
	cores[0].EPB = EPBPerformance
	dec := p.Tick(0, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 3300 {
		t.Errorf("EPB perf at base setting -> %v, want 3.3 GHz turbo", dec.CoreTargetMHz[0])
	}
	// Balanced EPB at base setting: no turbo.
	p2 := newPCU()
	dec = p2.Tick(0, Telemetry{Cores: activeCores(1, 12, 2500, false), PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 2500 {
		t.Errorf("balanced EPB at base -> %v, want 2.5", dec.CoreTargetMHz[0])
	}
}

func TestTurboDisabled(t *testing.T) {
	cfg := DefaultConfig(uarch.E52680v3(), 0, 0)
	cfg.TurboEnabled = false
	p := New(cfg)
	dec := p.Tick(0, Telemetry{Cores: activeCores(1, 12, 2501, false), PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 2500 {
		t.Errorf("turbo-off target = %v, want base", dec.CoreTargetMHz[0])
	}
}

func TestUncoreMapNoStall(t *testing.T) {
	// Table III: single busy-wait thread, no stalls -> mapped uncore.
	spec := uarch.E52680v3()
	p := newPCU()
	for set, want := range map[uarch.MHz]uarch.MHz{2500: 2200, 2000: 1750, 1200: 1200} {
		dec := p.Tick(0, Telemetry{Cores: activeCores(1, 12, set, false), PkgPowerW: 30, SystemMaxRequestMHz: set})
		if dec.UncoreMHz != want {
			t.Errorf("uncore at setting %v = %v, want %v", set, dec.UncoreMHz, want)
		}
	}
	dec := p.Tick(0, Telemetry{Cores: activeCores(1, 12, spec.TurboSettingMHz(), false), PkgPowerW: 30})
	if dec.UncoreMHz != 3000 {
		t.Errorf("uncore at turbo setting = %v, want 3.0", dec.UncoreMHz)
	}
}

func TestUncorePassiveInterlock(t *testing.T) {
	// Passive socket: one step below the active socket's map point.
	p := New(DefaultConfig(uarch.E52680v3(), 1, 250*sim.Microsecond))
	dec := p.Tick(250*sim.Microsecond, Telemetry{
		Cores:               activeCores(0, 12, 0, false),
		PkgPowerW:           12,
		SystemMaxRequestMHz: 2500, // other socket runs at 2.5
	})
	if dec.UncoreMHz != 2100 {
		t.Errorf("passive uncore = %v, want 2.1 (Table III)", dec.UncoreMHz)
	}
}

func TestUncoreMaxUnderMemoryStalls(t *testing.T) {
	// Section V-A: upper bound 3.0 GHz in memory-stall scenarios, also
	// for lower core frequencies.
	p := newPCU()
	dec := p.Tick(0, Telemetry{
		Cores:        activeCores(12, 12, 1200, false),
		PkgPowerW:    60,
		MemoryStalls: true,
	})
	if dec.UncoreMHz != 3000 {
		t.Errorf("uncore under stalls = %v, want 3.0", dec.UncoreMHz)
	}
}

func TestUncoreHaltedInPackageSleep(t *testing.T) {
	p := newPCU()
	dec := p.Tick(0, Telemetry{
		Cores:     activeCores(0, 12, 0, false),
		PkgPowerW: 5,
		PkgCState: cstate.PC6,
	})
	if dec.UncoreMHz != 0 {
		t.Errorf("uncore in PC6 = %v, want halted", dec.UncoreMHz)
	}
}

// TestHaltedPackageReplays: a package in PC6 settles into the steady
// tick although its halted uncore reads 0 MHz, below the UFS target,
// and every replayed Decision equals the recomputed one that
// DebugNoHaltedSteadyTick forces.
func TestHaltedPackageReplays(t *testing.T) {
	defer func() { DebugNoHaltedSteadyTick = false }()
	tel := Telemetry{Cores: activeCores(0, 12, 0, false), PkgPowerW: 5, PkgCState: cstate.PC6, SystemMaxRequestMHz: 2500}
	var want []Decision
	for _, off := range []bool{true, false} {
		DebugNoHaltedSteadyTick = off
		p := newPCU()
		for i := 0; i < 4; i++ {
			now := sim.Time(i) * 500 * sim.Microsecond
			dec := *p.Evaluate(now, &tel)
			if dec.UncoreMHz != 0 {
				t.Fatalf("tick %d: uncore in PC6 = %v, want halted", i, dec.UncoreMHz)
			}
			if replay := i > 0 && !off; dec.Replayed != replay {
				t.Fatalf("tick %d with the halted steady tick off=%v: replayed %v, want %v", i, off, dec.Replayed, replay)
			}
			dec.Replayed = false
			dec.CoreTargetMHz = append([]uarch.MHz(nil), dec.CoreTargetMHz...)
			dec.AVXMode = append([]bool(nil), dec.AVXMode...)
			if off {
				want = append(want, dec)
			} else if !reflect.DeepEqual(dec, want[i]) {
				t.Fatalf("tick %d: replayed decision %+v, recomputed %+v", i, dec, want[i])
			}
		}
	}
}

func TestEPBPerformanceUncorePin(t *testing.T) {
	// Table III asterisks: 3.0 GHz if EPB is set to performance.
	p := newPCU()
	cores := activeCores(1, 12, 2500, false)
	cores[0].EPB = EPBPerformance
	dec := p.Tick(0, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.UncoreMHz != 3000 {
		t.Errorf("EPB-perf uncore at 2.5 = %v, want 3.0", dec.UncoreMHz)
	}
}

func TestTDPThrottleConverges(t *testing.T) {
	// Feed a synthetic power model: power grows with core and uncore
	// clocks; the controller must settle near TDP with cores between
	// AVX base and the AVX ladder.
	spec := uarch.E52680v3()
	p := newPCU()
	power := func(dec Decision) float64 {
		w := 19.0 // static + leakage
		for _, f := range dec.CoreTargetMHz {
			v := 0.75 + 0.22*(f.GHz()-1.2)
			w += 2.6 * 1.3 * v * v * f.GHz()
		}
		if dec.UncoreMHz > 0 {
			v := 0.75 + 0.22*(dec.UncoreMHz.GHz()-1.2)
			w += 5.3 * v * v * dec.UncoreMHz.GHz()
		}
		return w
	}
	tel := Telemetry{Cores: activeCores(12, 12, spec.TurboSettingMHz(), true), PkgPowerW: 30, MemoryStalls: true}
	var dec Decision
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		dec = p.Tick(now, tel)
		tel.PkgPowerW = power(dec)
		// Keep AVX fresh.
		for j := range tel.Cores {
			tel.Cores[j].AVXNow = true
		}
		now += 500 * sim.Microsecond
	}
	if tel.PkgPowerW > 128 || tel.PkgPowerW < 105 {
		t.Fatalf("TDP controller settled at %.1f W, want ~120", tel.PkgPowerW)
	}
	f := dec.CoreTargetMHz[0]
	if f < 2100 || f > 2500 {
		t.Fatalf("sustained core clock %v, want between AVX base and ~2.4 (Table IV)", f)
	}
	// Sustained uncore should sit near the sustained core clock.
	if dec.UncoreMHz < f-200 || dec.UncoreMHz > f+400 {
		t.Fatalf("sustained uncore %v vs core %v: should be coupled (Table IV)", dec.UncoreMHz, f)
	}
}

func TestBudgetTradingGivesUncoreHeadroom(t *testing.T) {
	// Table IV: at a 2.2 GHz setting the cores no longer exhaust the
	// TDP and the uncore climbs well above its no-pressure floor.
	spec := uarch.E52680v3()
	run := func(set uarch.MHz) (core, unc uarch.MHz) {
		p := newPCU()
		power := func(dec Decision) float64 {
			w := 19.0
			for _, f := range dec.CoreTargetMHz {
				v := 0.75 + 0.22*(f.GHz()-1.2)
				w += 2.6 * 1.3 * v * v * f.GHz()
			}
			if dec.UncoreMHz > 0 {
				v := 0.75 + 0.22*(dec.UncoreMHz.GHz()-1.2)
				w += 5.3 * v * v * dec.UncoreMHz.GHz()
			}
			return w
		}
		tel := Telemetry{Cores: activeCores(12, 12, set, true), PkgPowerW: 30, MemoryStalls: true}
		var dec Decision
		now := sim.Time(0)
		for i := 0; i < 400; i++ {
			dec = p.Tick(now, tel)
			tel.PkgPowerW = power(dec)
			for j := range tel.Cores {
				tel.Cores[j].AVXNow = true
			}
			now += 500 * sim.Microsecond
		}
		return dec.CoreTargetMHz[0], dec.UncoreMHz
	}
	coreTurbo, uncTurbo := run(spec.TurboSettingMHz())
	core22, unc22 := run(2200)
	core21, unc21 := run(2100)
	if core22 != 2200 && core22 != 2100 {
		t.Errorf("2.2 setting: core %v, want at/near setting", core22)
	}
	if unc22 <= uncTurbo {
		t.Errorf("2.2 setting: uncore %v should exceed turbo-setting uncore %v (budget trading)", unc22, uncTurbo)
	}
	if core21 != 2100 {
		t.Errorf("2.1 setting: core %v, want exactly 2.1 (no throttling below AVX base)", core21)
	}
	if unc21 != 3000 {
		t.Errorf("2.1 setting: uncore %v, want full 3.0 (headroom)", unc21)
	}
	if coreTurbo >= 2500 {
		t.Errorf("turbo setting: core %v must be TDP-limited below base", coreTurbo)
	}
}

func TestEETWithholdsTurboFromStallingCores(t *testing.T) {
	spec := uarch.E52680v3()
	p := newPCU()
	cores := activeCores(1, 12, spec.TurboSettingMHz(), false)
	cores[0].StallFrac = 0.6
	// First tick at t=0 also performs the first EET poll.
	dec := p.Tick(0, Telemetry{Cores: cores, PkgPowerW: 40})
	dec = p.Tick(sim.Millisecond, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] > 2500 {
		t.Errorf("EET left turbo at %v for a 60%%-stalled core", dec.CoreTargetMHz[0])
	}
	// With EPB performance, EET does not interfere.
	p2 := newPCU()
	cores[0].EPB = EPBPerformance
	dec = p2.Tick(0, Telemetry{Cores: cores, PkgPowerW: 40})
	dec = p2.Tick(sim.Millisecond, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 3300 {
		t.Errorf("EPB performance must bypass EET: %v", dec.CoreTargetMHz[0])
	}
}

// TestDecisionReportsReplay: a fixed-point tick replays the previous
// Decision and says so; a first tick, changed telemetry and a
// reprogrammed limit do not.
func TestDecisionReportsReplay(t *testing.T) {
	p := newPCU()
	tel := Telemetry{Cores: activeCores(2, 12, 2000, false), PkgPowerW: 30, SystemMaxRequestMHz: 2000}
	first := p.Tick(0, tel)
	if first.Replayed {
		t.Fatal("first tick reported a replay")
	}
	want := append([]uarch.MHz(nil), first.CoreTargetMHz...)
	unc := first.UncoreMHz
	for i := 1; i <= 3; i++ {
		dec := p.Tick(sim.Time(i)*500*sim.Microsecond, tel)
		if !dec.Replayed {
			t.Fatalf("tick %d at a fixed point was not a replay", i)
		}
		for j, f := range dec.CoreTargetMHz {
			if f != want[j] {
				t.Fatalf("replayed target %d = %v, previous decision %v", j, f, want[j])
			}
		}
		if dec.UncoreMHz != unc {
			t.Fatalf("replayed uncore %v, previous decision %v", dec.UncoreMHz, unc)
		}
	}
	tel.Cores = activeCores(2, 12, 1800, false)
	if p.Tick(2*sim.Millisecond, tel).Replayed {
		t.Fatal("changed request replayed the previous decision")
	}
	if !p.Tick(2500*sim.Microsecond, tel).Replayed {
		t.Fatal("fixed point after the change was not a replay")
	}
	p.SetTDPWatts(100)
	if p.Tick(3*sim.Millisecond, tel).Replayed {
		t.Fatal("reprogrammed power limit replayed the previous decision")
	}
}

// TestForkIntoDecisionOwnsItsSlices: a forked PCU's Decision, replayed
// or recomputed, fresh or into recycled storage, holds the fork's own
// slices, and the child's evaluation leaves the parent's Decision as it
// was.
func TestForkIntoDecisionOwnsItsSlices(t *testing.T) {
	parent := newPCU()
	tel := Telemetry{Cores: activeCores(2, 12, 2000, false), PkgPowerW: 30, SystemMaxRequestMHz: 2000}
	parent.Evaluate(0, &tel)
	pdec := parent.Evaluate(500*sim.Microsecond, &tel)
	if !pdec.Replayed {
		t.Fatal("the parent's second tick at a fixed point was not a replay")
	}
	wantCore := append([]uarch.MHz(nil), pdec.CoreTargetMHz...)
	wantAVX := append([]bool(nil), pdec.AVXMode...)
	owns := func(what string, d *Decision) {
		t.Helper()
		if &d.CoreTargetMHz[0] == &parent.decCore[0] || &d.AVXMode[0] == &parent.decAVX[0] {
			t.Fatalf("%s decision holds the parent's slices", what)
		}
	}

	recycled := newPCU()
	recycled.Evaluate(0, &Telemetry{Cores: activeCores(12, 12, 2500, true), PkgPowerW: 120})
	for _, child := range []*PCU{new(PCU), recycled} {
		parent.ForkInto(child)
		if d := child.Evaluate(sim.Millisecond, &tel); !d.Replayed {
			t.Fatal("the child's first tick at the parent's fixed point was not a replay")
		} else {
			owns("the child's replayed", d)
		}
		changed := tel
		changed.Cores = activeCores(4, 12, 1500, true)
		d := child.Evaluate(1500*sim.Microsecond, &changed)
		if d.Replayed {
			t.Fatal("the child's tick on changed telemetry replayed")
		}
		owns("the child's recomputed", d)
		if !reflect.DeepEqual(pdec.CoreTargetMHz, wantCore) || !reflect.DeepEqual(pdec.AVXMode, wantAVX) ||
			&pdec.CoreTargetMHz[0] != &parent.decCore[0] {
			t.Fatalf("the child's ticks moved the parent's decision to %v %v, want %v %v",
				pdec.CoreTargetMHz, pdec.AVXMode, wantCore, wantAVX)
		}
	}
}

func TestEETPollingIsSporadic(t *testing.T) {
	// The 1 ms poll means a stall spike between polls is invisible
	// until the next poll — the phase-change hazard of Section II-E.
	spec := uarch.E52680v3()
	p := newPCU()
	clean := activeCores(1, 12, spec.TurboSettingMHz(), false)
	p.Tick(0, Telemetry{Cores: clean, PkgPowerW: 40}) // poll at 0: no stalls
	stalled := activeCores(1, 12, spec.TurboSettingMHz(), false)
	stalled[0].StallFrac = 0.9
	// 0.5 ms later the workload turned stall-heavy, but EET hasn't
	// re-polled yet: turbo stays.
	dec := p.Tick(500*sim.Microsecond, Telemetry{Cores: stalled, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 3300 {
		t.Errorf("EET reacted between polls: %v", dec.CoreTargetMHz[0])
	}
	// At the 1 ms poll it reacts.
	dec = p.Tick(sim.Millisecond, Telemetry{Cores: stalled, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] > 2500 {
		t.Errorf("EET did not react at its poll: %v", dec.CoreTargetMHz[0])
	}
}

func TestCoupledAndFixedUncorePolicies(t *testing.T) {
	snb := New(DefaultConfig(uarch.E52670SNB(), 0, 0))
	dec := snb.Tick(0, Telemetry{Cores: activeCores(2, 8, 2000, false), PkgPowerW: 40})
	if dec.UncoreMHz != dec.CoreTargetMHz[0] {
		t.Errorf("SNB uncore %v must equal core clock %v", dec.UncoreMHz, dec.CoreTargetMHz[0])
	}
	wsm := New(DefaultConfig(uarch.X5670WSM(), 0, 0))
	dec = wsm.Tick(0, Telemetry{Cores: activeCores(2, 6, 1600, false), PkgPowerW: 40})
	if dec.UncoreMHz != uarch.X5670WSM().UncoreMaxMHz {
		t.Errorf("WSM uncore %v must be fixed", dec.UncoreMHz)
	}
}

func TestPCPSDisabledSharesClock(t *testing.T) {
	// With per-core p-states off, the PCU still emits per-core targets;
	// system-level sharing is exercised in the core package. Here we
	// only verify requests are honored per core when PCPS is on.
	p := newPCU()
	cores := activeCores(2, 12, 1500, false)
	cores[1].RequestMHz = 2400
	dec := p.Tick(0, Telemetry{Cores: cores, PkgPowerW: 40})
	if dec.CoreTargetMHz[0] != 1500 || dec.CoreTargetMHz[1] != 2400 {
		t.Errorf("per-core targets = %v/%v, want 1500/2400", dec.CoreTargetMHz[0], dec.CoreTargetMHz[1])
	}
}

func TestTDPOverride(t *testing.T) {
	cfg := DefaultConfig(uarch.E52680v3(), 0, 0)
	cfg.TDPOverrideW = 90
	if New(cfg).TDPWatts() != 90 {
		t.Error("TDP override ignored")
	}
	if newPCU().TDPWatts() != 120 {
		t.Error("default TDP should be spec TDP")
	}
}

func TestStringer(t *testing.T) {
	if newPCU().String() == "" {
		t.Error("empty PCU string")
	}
}
