package core

import (
	"fmt"
	"strings"
	"testing"

	"hswsim/internal/cstate"
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
// package c-states, die temperatures, core performance counters and
// frequencies, AC power, meter samples — with bit-exact float
// formatting.
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
		fmt.Fprintf(&b, "cpu%d tsc=%d aperf=%d mperf=%d inst=%d f=%v\n",
			cpu, s.TSC, s.APERF, s.MPERF, s.Instructions, sys.CoreFreqMHz(cpu))
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
