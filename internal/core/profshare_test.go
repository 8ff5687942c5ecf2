package core

import (
	"reflect"
	"testing"

	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// Profile sharing lets cores on one socket that run an equal
// phase-varying kernel from the same instant read one leader's profile
// memo. These tests pin its contract: switching sharing off
// (debugNoProfileShare) changes no output byte, with the steady replay
// on and off, across leader churn and forks.

// tableVSystem builds the Table V platform (HT off) with k on every
// core and turbo requested.
func tableVSystem(tb testing.TB, k workload.Kernel) *System {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.HyperThreading = false
	sys, err := NewSystem(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		assignOrFail(tb, sys, cpu, k)
	}
	sys.RequestTurbo()
	return sys
}

func assignOrFail(tb testing.TB, sys *System, cpu int, k workload.Kernel) {
	tb.Helper()
	if err := sys.AssignKernel(cpu, k, 1); err != nil {
		tb.Fatal(err)
	}
}

// leaders returns the profile leader of every core on one socket.
func leaders(sys *System, socket int) []int {
	sk := sys.Socket(socket)
	out := make([]int, len(sk.cores))
	for i, c := range sk.cores {
		out[i] = c.profLeader
	}
	return out
}

// checkLeaders requires the socket's leaders to be want with sharing on,
// and every core its own leader with it off.
func checkLeaders(t *testing.T, sys *System, socket int, want []int) {
	t.Helper()
	if debugNoProfileShare {
		want = make([]int, len(want))
		for i := range want {
			want[i] = i
		}
	}
	if got := leaders(sys, socket); !reflect.DeepEqual(got, want) {
		t.Fatalf("socket %d leaders = %v, want %v (sharing off: %v)",
			socket, got, want, debugNoProfileShare)
	}
}

// sameLeader returns n copies of leader.
func sameLeader(n, leader int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = leader
	}
	return out
}

// checkShareInvariant renders scenario with profile sharing on and off,
// each with the steady replay on and forced off, and requires all four
// renders to be identical.
func checkShareInvariant(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	checkOffSwitch(t, &debugNoProfileShare, "sharing off", scenario)
}

// TestProfileShareMprimeAllCores: the Table V mprime run, every core of
// each socket reading its socket's core 0.
func TestProfileShareMprimeAllCores(t *testing.T) {
	checkShareInvariant(t, func(t *testing.T) string {
		sys := tableVSystem(t, workload.Mprime())
		n := sys.Spec().Cores
		checkLeaders(t, sys, 0, sameLeader(n, 0))
		checkLeaders(t, sys, 1, sameLeader(n, 0))
		sys.Run(250 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestProfileShareMixedStaggered: every phase-varying kernel type on
// one socket, some instances shared by pointer, with start instants
// staggered so equal kernels started apart do not share.
func TestProfileShareMixedStaggered(t *testing.T) {
	a := workload.Profile{IPC1: 2.1, IPC2: 2.5, AVXFrac: 0.3, Activity: 0.8, L3BytesPerInst: 0.6}
	b := workload.Profile{IPC1: 1.2, IPC2: 1.6, Activity: 0.4, MemBytesPerInst: 3}
	checkShareInvariant(t, func(t *testing.T) string {
		sinus := workload.Sinus(30 * sim.Millisecond)
		scripted, err := workload.NewScripted("scripted",
			workload.Segment{Duration: 4 * sim.Millisecond, Profile: a},
			workload.Segment{Duration: 7 * sim.Millisecond, Profile: b})
		if err != nil {
			t.Fatal(err)
		}
		phased := &workload.Phased{Label: "phased", A: a, B: b, HalfPeriod: 3 * sim.Millisecond}

		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu, k := range []workload.Kernel{
			workload.Mprime(), workload.Mprime(), workload.Mprime(),
			workload.Linpack(), workload.Linpack(),
			sinus, sinus, workload.Sinus(30 * sim.Millisecond),
			scripted, scripted, phased,
		} {
			assignOrFail(t, sys, cpu, k)
		}
		assignOrFail(t, sys, 12, workload.Mprime()) // socket 1 shares nothing with socket 0
		sys.RequestTurbo()
		checkLeaders(t, sys, 0, []int{0, 0, 0, 3, 3, 5, 5, 7, 8, 8, 10, 11})
		sys.Run(7 * sim.Millisecond)

		// Staggered starts: equal kernels begun later lead themselves.
		assignOrFail(t, sys, 11, workload.Mprime())
		assignOrFail(t, sys, 4, workload.Linpack())
		checkLeaders(t, sys, 0, []int{0, 0, 0, 3, 4, 5, 5, 7, 8, 8, 10, 11})
		sys.Run(13 * sim.Millisecond)

		assignOrFail(t, sys, 2, phased)
		assignOrFail(t, sys, 1, workload.Linpack())
		assignOrFail(t, sys, 7, workload.Linpack())
		checkLeaders(t, sys, 0, []int{0, 1, 2, 3, 4, 5, 5, 1, 8, 8, 10, 11})
		sys.Run(80 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestProfileShareLeaderReassigned: the leader core switches kernel and
// back mid-run; its followers move to the next core and stay there.
func TestProfileShareLeaderReassigned(t *testing.T) {
	checkShareInvariant(t, func(t *testing.T) string {
		sys := tableVSystem(t, workload.Mprime())
		n := sys.Spec().Cores
		sys.Run(30 * sim.Millisecond)

		assignOrFail(t, sys, 0, workload.Linpack())
		assignOrFail(t, sys, n, nil)
		followers := append([]int{0}, sameLeader(n-1, 1)...)
		checkLeaders(t, sys, 0, followers)
		checkLeaders(t, sys, 1, followers)
		sys.Run(30 * sim.Millisecond)

		// Back on mprime, but from a later instant: no longer equal.
		assignOrFail(t, sys, 0, workload.Mprime())
		assignOrFail(t, sys, n, workload.Mprime())
		checkLeaders(t, sys, 0, followers)
		checkLeaders(t, sys, 1, followers)
		sys.Run(60 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestProfileShareForkChildReassignsLeader: a fork's child reassigns a
// leader core. The child must evolve as an unforked system doing the
// same, and the parent as if it had never been forked.
func TestProfileShareForkChildReassignsLeader(t *testing.T) {
	const warm, d = 25 * sim.Millisecond, 40 * sim.Millisecond
	reassign := func(t *testing.T, sys *System) {
		assignOrFail(t, sys, 0, workload.Linpack())
		assignOrFail(t, sys, sys.Spec().Cores+1, workload.Sinus(20*sim.Millisecond))
	}
	checkShareInvariant(t, func(t *testing.T) string {
		plain := tableVSystem(t, workload.Mprime())
		plain.Run(warm)
		plain.Run(d)
		changed := tableVSystem(t, workload.Mprime())
		changed.Run(warm)
		reassign(t, changed)
		changed.Run(d)

		sys := tableVSystem(t, workload.Mprime())
		sys.Run(warm)
		child, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		reassign(t, child)
		n := sys.Spec().Cores
		checkLeaders(t, child, 0, append([]int{0}, sameLeader(n-1, 1)...))
		checkLeaders(t, sys, 0, sameLeader(n, 0))
		child.Run(d)
		sys.Run(d)

		parentRef, childRef := renderOutputs(t, plain), renderOutputs(t, changed)
		if got := renderOutputs(t, sys); got != parentRef {
			t.Fatalf("parent diverged from an unforked run after its child reassigned a leader: %s",
				firstDiff(parentRef, got))
		}
		if got := renderOutputs(t, child); got != childRef {
			t.Fatalf("child diverged from an unforked run of the same reassignment: %s",
				firstDiff(childRef, got))
		}
		return parentRef + childRef
	})
}

// sliceKernel is a user kernel of a non-comparable type: == on two of
// them panics, so cores running it must not try to share.
type sliceKernel struct{ phases []workload.Profile }

func (sliceKernel) Name() string { return "slice kernel" }

func (k sliceKernel) ProfileAt(t sim.Time) workload.Profile {
	return k.phases[int(t/(5*sim.Millisecond))%len(k.phases)]
}

// wrappedKernel is comparable as a type, but == panics when the wrapped
// kernels' dynamic type is not.
type wrappedKernel struct{ workload.Kernel }

func TestProfileShareNonComparableKernel(t *testing.T) {
	k := sliceKernel{phases: []workload.Profile{
		{IPC1: 2, IPC2: 2.4, Activity: 0.7},
		{IPC1: 1, IPC2: 1.3, Activity: 0.4, MemBytesPerInst: 2},
	}}
	checkShareInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu, kk := range []workload.Kernel{
			k, k, wrappedKernel{k}, wrappedKernel{k},
			wrappedKernel{workload.Mprime()}, wrappedKernel{workload.Mprime()},
		} {
			assignOrFail(t, sys, cpu, kk)
		}
		checkLeaders(t, sys, 0, []int{0, 1, 2, 3, 4, 4, 6, 7, 8, 9, 10, 11})
		sys.Run(60 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}
