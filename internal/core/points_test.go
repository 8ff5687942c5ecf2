package core

import (
	"testing"

	"hswsim/internal/cache"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// Operating-point sharing lets the active cores of a socket that agree
// in granted clock, ring class, threads and profile share one solver
// load and every per-core derivation that depends only on the point.
// These tests pin its contract: switching it off (debugNoSharedPoints)
// changes no output byte, with the steady replay on and forced off.

// checkPointsInvariant renders scenario with point sharing on and off,
// each with the steady replay on and forced off, and requires all four
// renders to be identical. It then does the same with the
// operating-point table kept and rebuilt on every full segment (see
// pointtable_test.go).
func checkPointsInvariant(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	checkOffSwitch(t, &debugNoSharedPoints, "shared points off", scenario)
	checkTableInvariant(t, scenario)
}

// checkPoints requires the socket's last full segment to have solved
// want points, or one point per active core with sharing off.
func checkPoints(t *testing.T, sys *System, socket, want int) {
	t.Helper()
	sk := sys.Socket(socket)
	if debugNoSharedPoints {
		want = len(sk.coresBuf)
	}
	if got := len(sk.pointsBuf); got != want {
		t.Fatalf("socket %d solved %d points for %d active cores, want %d (sharing off: %v)",
			socket, got, len(sk.coresBuf), want, debugNoSharedPoints)
	}
}

// checkOneClock requires every core of the socket to run at one clock.
func checkOneClock(t *testing.T, sys *System, socket int) {
	t.Helper()
	sk := sys.Socket(socket)
	for _, c := range sk.cores {
		if c.FreqMHz() != sk.cores[0].FreqMHz() {
			t.Fatalf("socket %d: core %d at %v, core 0 at %v", socket, c.Index, c.FreqMHz(), sk.cores[0].FreqMHz())
		}
	}
}

// tableVPoints runs a Table V kernel on all 24 cores and requires two
// points per socket, one per ring class of the 12-core die, whenever
// the socket runs at one clock.
func tableVPoints(t *testing.T, k workload.Kernel) string {
	sys := tableVSystem(t, k)
	sys.Run(40 * sim.Millisecond)
	for i := 0; i < 20; i++ {
		sys.Run(sim.Millisecond)
		for s := 0; s < sys.Sockets(); s++ {
			checkOneClock(t, sys, s)
			checkPoints(t, sys, s, 2)
		}
	}
	return renderOutputs(t, sys)
}

// TestSharedPointsTableVMprime: mprime on all cores shares one profile
// leader per socket.
func TestSharedPointsTableVMprime(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		return tableVPoints(t, workload.Mprime())
	})
}

// TestSharedPointsTableVFirestarter: FIRESTARTER is a constant kernel,
// so every core leads its own profile and the cores share points by
// profile value.
func TestSharedPointsTableVFirestarter(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		return tableVPoints(t, workload.Firestarter())
	})
}

// TestSharedPointsMixedStaggered: phase-varying and constant kernels on
// one socket, with staggered starts so equal kernels begun apart hold
// distinct profiles.
func TestSharedPointsMixedStaggered(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu, k := range []workload.Kernel{
			workload.Mprime(), workload.Mprime(), workload.Linpack(), workload.Linpack(),
			workload.Compute(), workload.Compute(), workload.Mprime(), workload.Linpack(),
			workload.Mprime(), workload.Compute(), workload.Linpack(), workload.Mprime(),
		} {
			assignOrFail(t, sys, cpu, k)
		}
		assignOrFail(t, sys, 12, workload.Mprime())
		sys.RequestTurbo()
		sys.Run(9 * sim.Millisecond)

		assignOrFail(t, sys, 6, workload.Mprime())
		assignOrFail(t, sys, 3, workload.Compute())
		sys.Run(11 * sim.Millisecond)

		assignOrFail(t, sys, 0, workload.Linpack())
		assignOrFail(t, sys, 5, nil)
		assignOrFail(t, sys, 13, workload.Mprime())
		sys.Run(60 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSharedPointsThreadsMixed: mprime on socket 0 and FIRESTARTER on
// socket 1, with one and two hardware threads alternating across the
// cores, so threads split each ring class's point in two.
func TestSharedPointsThreadsMixed(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			k := workload.Mprime()
			if cpu >= sys.Spec().Cores {
				k = workload.Firestarter()
			}
			if err := sys.AssignKernel(cpu, k, 1+cpu%2); err != nil {
				t.Fatal(err)
			}
		}
		sys.RequestTurbo()
		sys.Run(40 * sim.Millisecond)
		for s := 0; s < sys.Sockets(); s++ {
			checkOneClock(t, sys, s)
			checkPoints(t, sys, s, 4)
		}
		sys.Run(40 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSharedPointsAVXRamp: a core inside its 500 µs AVX ramp runs at a
// 0.75 slowdown while it shares a point with cores at full speed, so
// the per-point rate and IPC share must be derived per slowdown.
func TestSharedPointsAVXRamp(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// At the lowest clock, AVX mode does not move the grant, so the
		// ramping core runs at its neighbours' clock.
		sys.SetPStateAll(sys.Spec().MinMHz)
		for cpu := 0; cpu < 11; cpu++ {
			assignOrFail(t, sys, cpu, workload.Firestarter())
		}
		sys.Run(20 * sim.Millisecond)
		assignOrFail(t, sys, 11, workload.Firestarter())
		sk := sys.Socket(0)
		mixed := false
		for i := 0; i < 10; i++ {
			sys.Run(100 * sim.Microsecond)
			if sk.cores[11].lastSD == 0.75 && sk.cores[8].lastSD == 1 &&
				sk.pointOf[11] == sk.pointOf[8] {
				mixed = true
			}
		}
		if mixed == debugNoSharedPoints {
			t.Fatalf("ramping core shared a point with a full-speed core: %v, want %v",
				mixed, !debugNoSharedPoints)
		}
		sys.Run(20 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSharedPointsNUMABindsQPI: remote DRAM streams on every core of
// socket 0 (all-remote, half-remote on every third core) exceed the QPI
// capacity, so the solver rescales the points and re-sums the demand
// the later stages read.
func TestSharedPointsNUMABindsQPI(t *testing.T) {
	checkPointsInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < sys.Spec().Cores; cpu++ {
			k := workload.NUMAStream(1)
			if cpu%3 == 0 {
				k = workload.NUMAStream(0.5)
			}
			assignOrFail(t, sys, cpu, k)
		}
		sys.Run(20 * sim.Millisecond)
		// Each point solved alone is unconstrained by shared capacity:
		// summed over the cores, their remote demand must exceed QPI.
		sk := sys.Socket(0)
		remote := 0.0
		for j := range sk.coresBuf {
			ld := sk.pointsBuf[sk.pointOf[j]]
			alone := sk.Cache.Solve([]cache.CoreLoad{ld}, sk.UncoreMHz().GHz())
			remote += alone[0].MemGBs * ld.Prof.RemoteMemFrac
		}
		if qpi := sk.Spec.Mem.QPIGBs; remote <= qpi {
			t.Fatalf("remote demand %v GB/s does not exceed the QPI capacity %v", remote, qpi)
		}
		sys.Run(30 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}
