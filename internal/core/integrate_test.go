package core

import (
	"fmt"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// integrateFingerprint runs a mixed scenario (steady phases, p-state
// changes, c-state transitions, a cross-core wake, a phase-varying
// kernel) and renders its outputs with renderOutputs.
func integrateFingerprint(t *testing.T) string {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		t.Helper()
		if e != nil {
			t.Fatal(e)
		}
	}
	must(sys.AssignKernel(0, workload.Firestarter(), 2))
	must(sys.AssignKernel(1, workload.Compute(), 1))
	must(sys.AssignKernel(13, workload.Memory(), 2))
	must(sys.AssignKernel(14, workload.Sinus(40*sim.Millisecond), 1))
	sys.Run(120 * sim.Millisecond)
	sys.SetPState(0, 1800)
	sys.SetPState(13, 1200)
	sys.Run(80 * sim.Millisecond)
	must(sys.AssignKernel(1, nil, 1))
	must(sys.SleepCore(1, cstate.C6))
	sys.Run(60 * sim.Millisecond)
	if _, err := sys.WakeCore(0, 1, workload.Sqrt()); err != nil {
		t.Fatal(err)
	}
	sys.Run(140 * sim.Millisecond)
	return renderOutputs(t, sys)
}

// renderOutputs renders every observable output of sys — RAPL counters,
// package c-states, die temperatures, core performance counters (the
// TSC both from the snapshot and through the MSR) and frequencies,
// residency, AC power, meter samples — with bit-exact float formatting.
func renderOutputs(t *testing.T, sys *System) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < sys.Sockets(); i++ {
		r, err := sys.ReadRAPL(i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "socket%d rapl pkg=%d dram=%d pcustate=%v temp=%x\n",
			i, r.Pkg, r.DRAM, sys.Socket(i).PkgCState(), sys.Socket(i).Power.TempC())
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		s := sys.Core(cpu).Snapshot()
		msrTSC, err := sys.ReadMSR(cpu, msr.IA32_TIME_STAMP_COUNTER)
		if err != nil {
			t.Fatal(err)
		}
		r := sys.CoreResidency(cpu)
		fmt.Fprintf(&b, "cpu%d tsc=%d msrtsc=%d aperf=%d mperf=%d inst=%d f=%v resid=%v %v\n",
			cpu, s.TSC, msrTSC, s.APERF, s.MPERF, s.Instructions, sys.CoreFreqMHz(cpu),
			r.PState, r.CState)
	}
	fmt.Fprintf(&b, "ac=%x\n", sys.ACPowerW())
	for i, s := range sys.Meter().Samples() {
		fmt.Fprintf(&b, "meter %d %v %x\n", i, s.At, s.W)
	}
	return b.String()
}

// firstDiff describes the first line where two renders differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range wl {
		if i >= len(gl) {
			return fmt.Sprintf("line %d missing, want %q", i, wl[i])
		}
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i, wl[i], gl[i])
		}
	}
	return "got has extra lines"
}

// checkOffSwitch renders scenario with a fast path's off switch (a
// debug seam) clear and set, each with the steady replay on and forced
// off, and requires all four renders to be identical.
func checkOffSwitch(t *testing.T, off *bool, name string, scenario func(t *testing.T) string) {
	t.Helper()
	defer func() { *off, debugForceFullIntegration = false, false }()
	var ref string
	for i, mode := range []struct{ off, forceFull bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		*off, debugForceFullIntegration = mode.off, mode.forceFull
		got := scenario(t)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("%s=%v, full integration=%v diverges from the default run: %s",
				name, mode.off, mode.forceFull, firstDiff(ref, got))
		}
	}
}

// TestIntegrateSteadyReplayBitwise is the determinism contract of the
// change-driven integrator: forcing every segment through the full
// recomputation path must produce byte-for-byte the same outputs as the
// normal run that replays memoized steady segments.
func TestIntegrateSteadyReplayBitwise(t *testing.T) {
	fast := integrateFingerprint(t)

	debugForceFullIntegration = true
	defer func() { debugForceFullIntegration = false }()
	full := integrateFingerprint(t)

	if fast != full {
		t.Fatalf("steady replay diverges from full integration: %s", firstDiff(fast, full))
	}
}
