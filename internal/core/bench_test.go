package core

import (
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// benchSystem builds the default dual-socket node with a steady mixed
// load: the configuration every experiment's measurement loop runs in.
func benchSystem(b *testing.B) *System {
	b.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []struct {
		cpu     int
		k       workload.Kernel
		threads int
	}{
		{0, workload.Firestarter(), 2},
		{1, workload.Compute(), 1},
		{2, workload.Memory(), 2},
		{13, workload.BusyWait(), 1},
	} {
		if err := sys.AssignKernel(a.cpu, a.k, a.threads); err != nil {
			b.Fatal(err)
		}
	}
	// Let transients (p-state ramps, package-state settling) decay so
	// the timed region is pure steady state.
	sys.Run(20 * sim.Millisecond)
	return sys
}

// BenchmarkSystemRunSteadyState measures one millisecond of virtual
// time under constant load: PCU grid ticks, meter samples and the
// per-segment power integration with no operating-point changes.
func BenchmarkSystemRunSteadyState(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(sim.Millisecond)
	}
}

// BenchmarkSystemRunMprime measures one millisecond of virtual time
// under the phase-varying mprime load of Table V (all 24 cores, after a
// 20 ms warm-up): its profile drifts every segment, so most segments
// take the full integration path.
func BenchmarkSystemRunMprime(b *testing.B) {
	sys := tableVSystem(b, workload.Mprime())
	sys.Run(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(sim.Millisecond)
	}
}

// BenchmarkSystemRunLinpack is BenchmarkSystemRunMprime under LINPACK,
// whose profile switches between its update and panel phases.
func BenchmarkSystemRunLinpack(b *testing.B) {
	sys := tableVSystem(b, workload.Linpack())
	sys.Run(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(sim.Millisecond)
	}
}

// BenchmarkSystemRunIdle measures the all-idle platform (both packages
// in deep sleep): the floor every idle-power measurement pays.
func BenchmarkSystemRunIdle(b *testing.B) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(20 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(sim.Millisecond)
	}
}

// BenchmarkSystemFork measures one fork of the warmed loaded platform —
// the per-sweep-point setup cost the forked experiments pay instead of
// a fresh NewSystem plus warmup.
func BenchmarkSystemFork(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Fork(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemForkedSweepPoint is one full sweep point as the
// converted experiments run it: fork the warm parent, change the
// operating point, advance a millisecond of virtual time, release the
// child back to the free list (the production forkMap path).
func BenchmarkSystemForkedSweepPoint(b *testing.B) {
	sys := benchSystem(b)
	spec := sys.Spec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.Fork()
		if err != nil {
			b.Fatal(err)
		}
		child.SetPStateAll(spec.MinMHz)
		child.Run(sim.Millisecond)
		child.Release()
	}
}

// BenchmarkSystemForkRelease measures the steady-state fork cost when
// children are returned to the free list after each sweep point — the
// pooled path, which reuses the released child's engine, socket/core
// slabs and MSR device instead of allocating fresh ones.
func BenchmarkSystemForkRelease(b *testing.B) {
	sys := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.Fork()
		if err != nil {
			b.Fatal(err)
		}
		child.Release()
	}
}

// BenchmarkSystemPStateChurn measures integration with frequent
// operating-point changes (governor-style p-state flapping): the
// worst case for change-driven integration, guarding against fast-path
// bookkeeping slowing the dirty path down.
func BenchmarkSystemPStateChurn(b *testing.B) {
	sys := benchSystem(b)
	spec := sys.Spec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := spec.MinMHz
		if i%2 == 0 {
			f = spec.BaseMHz
		}
		if err := sys.SetPState(1, f); err != nil {
			b.Fatal(err)
		}
		sys.Run(sim.Millisecond)
	}
}
