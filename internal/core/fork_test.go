package core

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// forkFingerprint captures everything observable about a system at its
// current instant. Two systems that evolved identically must produce
// deeply equal fingerprints — floating-point state included, bit for
// bit (the values are compared with ==, not a tolerance).
type forkFingerprint struct {
	Now       sim.Time
	PkgJ      []float64
	DRAMJ     []float64
	PP0J      []float64
	TempC     []float64
	UncoreMHz []uarch.MHz
	FreqMHz   []uarch.MHz
	Volts     []float64
	TSC       []uint64
	APERF     []uint64
	MPERF     []uint64
	Instr     []uint64
	Meter     string
	Spans     []trace.Span
	OpenSpans []trace.Span
	SpanStats [2]uint64 // recorded, dropped
	ACPower   float64
	// The writable register words, read back through ReadMSR: EPB and
	// IA32_PERF_CTL per CPU, the power and uncore limits per socket.
	EPB         []uint64
	PerfCtl     []uint64
	PowerLimit  []uint64
	UncoreLimit []uint64
}

func fingerprint(t *testing.T, s *System) forkFingerprint {
	t.Helper()
	fp := forkFingerprint{Now: s.Now(), ACPower: s.ACPowerW()}
	for i := 0; i < s.Sockets(); i++ {
		sk := s.Socket(i)
		fp.PkgJ = append(fp.PkgJ, sk.RAPL.Pkg.EnergyJoules())
		fp.DRAMJ = append(fp.DRAMJ, sk.RAPL.DRAM.EnergyJoules())
		fp.PP0J = append(fp.PP0J, sk.RAPL.PP0.EnergyJoules())
		fp.TempC = append(fp.TempC, sk.Power.TempC())
		fp.UncoreMHz = append(fp.UncoreMHz, sk.UncoreMHz())
	}
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		c := s.Core(cpu)
		fp.FreqMHz = append(fp.FreqMHz, c.FreqMHz())
		fp.Volts = append(fp.Volts, c.Volts())
		snap := c.Snapshot()
		fp.TSC = append(fp.TSC, snap.TSC)
		fp.APERF = append(fp.APERF, snap.APERF)
		fp.MPERF = append(fp.MPERF, snap.MPERF)
		fp.Instr = append(fp.Instr, snap.Instructions)
	}
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		fp.EPB = append(fp.EPB, readMSR(t, s, cpu, msr.IA32_ENERGY_PERF_BIAS))
		fp.PerfCtl = append(fp.PerfCtl, readMSR(t, s, cpu, msr.IA32_PERF_CTL))
	}
	for i := 0; i < s.Sockets(); i++ {
		cpu := i * s.Spec().Cores
		fp.PowerLimit = append(fp.PowerLimit, readMSR(t, s, cpu, msr.MSR_PKG_POWER_LIMIT))
		fp.UncoreLimit = append(fp.UncoreLimit, readMSR(t, s, cpu, msr.MSR_UNCORE_RATIO_LIMIT))
	}
	for _, smp := range s.Meter().Samples() {
		// Exact float identity via the IEEE-754 bit pattern: any bit
		// difference between parent and child shows.
		fp.Meter += smp.At.String() + ":" + strconv.FormatUint(math.Float64bits(smp.W), 16) + " "
	}
	fp.Spans = s.Trace().Spans()
	fp.OpenSpans = s.Trace().Open(s.Now())
	fp.SpanStats = [2]uint64{s.Trace().SpansRecorded(), s.Trace().SpanDrops()}
	return fp
}

// readMSR reads a register that must not fault. It reports a fault
// with t.Error, since fingerprint runs on forks' own goroutines too.
func readMSR(t *testing.T, s *System, cpu int, reg uint32) uint64 {
	t.Helper()
	v, err := s.ReadMSR(cpu, reg)
	if err != nil {
		t.Error(err)
	}
	return v
}

// writeMSR writes a register that must not fault.
func writeMSR(t *testing.T, s *System, cpu int, reg uint32, v uint64) {
	t.Helper()
	if err := s.WriteMSR(cpu, reg, v); err != nil {
		t.Fatal(err)
	}
}

// forkScenario builds a warmed-up platform in a given state.
func forkScenario(t *testing.T, warm func(*System)) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sockets = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableTrace(4096)
	warm(sys)
	return sys
}

// checkForkBitwise forks sys, runs parent and child for d each, and
// requires deeply equal fingerprints.
func checkForkBitwise(t *testing.T, sys *System, d sim.Time) {
	t.Helper()
	child, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if got, want := child.Engine.Pending(), sys.Engine.Pending(); got != want {
		t.Fatalf("child has %d pending events, parent %d", got, want)
	}
	sys.Run(d)
	child.Run(d)
	a, b := fingerprint(t, sys), fingerprint(t, child)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fork diverged from parent after %v:\nparent: %+v\nchild:  %+v", d, a, b)
	}
}

func TestForkBitwiseIdenticalBusy(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.RequestTurbo()
		s.Run(100 * sim.Millisecond)
	})
	checkForkBitwise(t, sys, 250*sim.Millisecond)
}

func TestForkBitwiseIdenticalMixed(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		// Half the cores busy on a memory-bound kernel, half idle; one
		// socket runs at a fixed setting, the other at turbo.
		for cpu := 0; cpu < s.CPUs(); cpu += 2 {
			if err := s.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
				t.Fatal(err)
			}
		}
		half := s.CPUs() / 2
		for cpu := 0; cpu < half; cpu++ {
			if err := s.SetPState(cpu, 1600); err != nil {
				t.Fatal(err)
			}
		}
		for cpu := half; cpu < s.CPUs(); cpu++ {
			if err := s.SetPState(cpu, s.Spec().TurboSettingMHz()); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(73 * sim.Millisecond)
	})
	checkForkBitwise(t, sys, 200*sim.Millisecond)
}

func TestForkBitwiseIdenticalMidTransition(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.BusyWait(), 1); err != nil {
			t.Fatal(err)
		}
		s.Run(20 * sim.Millisecond)
		s.SetPStateAll(2000)
		// Step in small increments until a transition is in flight, so
		// the fork must carry a pending completion event.
		found := false
		for i := 0; i < 1000; i++ {
			s.Run(2 * sim.Microsecond)
			if _, inflight := s.Core(0).Domain().InFlight(); inflight {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("no in-flight transition to fork across")
		}
	})
	if !sys.Engine.IsPending(sys.Core(0).completeEv) {
		t.Fatal("expected a pending completion event at fork time")
	}
	checkForkBitwise(t, sys, 150*sim.Millisecond)
}

func TestForkChildIndependentOfParent(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * sim.Millisecond)
	})
	child, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Drive the parent somewhere else entirely; the child must not care.
	sys.SetPStateAll(1200)
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(300 * sim.Millisecond)

	// Reference: a second fork-equivalent — rebuild the same prefix and
	// run the child's schedule on it.
	ref := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * sim.Millisecond)
	})
	child.Run(200 * sim.Millisecond)
	ref.Run(200 * sim.Millisecond)
	a, b := fingerprint(t, child), fingerprint(t, ref)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("child (fork) diverged from fresh rebuild:\nchild: %+v\nref:   %+v", a, b)
	}
}

func TestForkRejectsForeignPendingEvents(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		s.Run(10 * sim.Millisecond)
	})
	sys.Engine.After(time1ms(), func(now sim.Time) {})
	if _, err := sys.Fork(); err == nil {
		t.Fatal("Fork accepted a foreign pending event")
	}
}

func time1ms() sim.Time { return sim.Millisecond }

func TestForkConcurrentSameResult(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(50 * sim.Millisecond)
	})
	const n = 4
	fps := make([]forkFingerprint, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- i }()
			child, err := sys.Fork()
			if err != nil {
				errs[i] = err
				return
			}
			child.Run(120 * sim.Millisecond)
			fps[i] = fingerprint(t, child)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		if i > 0 && !reflect.DeepEqual(fps[0], fps[i]) {
			t.Errorf("concurrent fork %d diverged from fork 0", i)
		}
	}
}

func TestForkGrandchildBitwise(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu += 3 {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		s.RequestTurbo()
		s.Run(60 * sim.Millisecond)
	})
	child, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	child.Run(80 * sim.Millisecond)
	grand, err := child.Fork()
	if err != nil {
		t.Fatalf("grandchild Fork: %v", err)
	}
	child.Run(150 * sim.Millisecond)
	grand.Run(150 * sim.Millisecond)
	a, b := fingerprint(t, child), fingerprint(t, grand)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("grandchild diverged from its parent fork:\nchild: %+v\ngrand: %+v", a, b)
	}
}

func TestForkReleaseReuse(t *testing.T) {
	warm := func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(40 * sim.Millisecond)
	}
	sys := forkScenario(t, warm)

	// Reference: a never-released child.
	ref, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	ref.Run(120 * sim.Millisecond)
	want := fingerprint(t, ref)

	// Release a child, then fork again: the free list is deterministic
	// (mutex-guarded slice, not sync.Pool), so the released storage MUST
	// come back — and the recycled child must evolve identically.
	c1, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	c1.Release()
	c2, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if c2 != c1 {
		t.Fatal("fork after Release did not reuse the released child's storage")
	}
	c2.Run(120 * sim.Millisecond)
	if got := fingerprint(t, c2); !reflect.DeepEqual(got, want) {
		t.Errorf("reused child diverged from a fresh child:\nreused: %+v\nfresh:  %+v", got, want)
	}

	// Release on a root system is a no-op: roots are not poolable.
	c2.Release()
	sys.Release()
	if got := len(sys.pool.free); got != 1 {
		t.Fatalf("pool holds %d systems after root Release, want 1 (the child only)", got)
	}
}

// TestForkReuseRegisterWords: the four writable register words ride a
// fork's struct copy. A child that wrote other words is released and
// its storage recycled by the next Fork; the recycled child must read
// back the parent's words, upper bits included, and evolve exactly as
// an unforked copy of the parent.
func TestForkReuseRegisterWords(t *testing.T) {
	warm := func(s *System) {
		for cpu := 0; cpu < 4; cpu++ {
			if err := s.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				t.Fatal(err)
			}
		}
		writeMSR(t, s, 2, msr.IA32_ENERGY_PERF_BIAS, 0xab0)
		writeMSR(t, s, 0, msr.IA32_PERF_CTL, 0xc0de<<32|20<<8)
		writeMSR(t, s, s.CPUs()-1, msr.MSR_PKG_POWER_LIMIT, 1<<40|90*8|1<<15)
		writeMSR(t, s, 0, msr.MSR_UNCORE_RATIO_LIMIT, 28|13<<8)
		s.Run(40 * sim.Millisecond)
	}
	sys := forkScenario(t, warm)
	ref := forkScenario(t, warm) // the unforked copy

	c1, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	writeMSR(t, c1, 2, msr.IA32_ENERGY_PERF_BIAS, 0)
	writeMSR(t, c1, 0, msr.IA32_PERF_CTL, 12<<8)
	writeMSR(t, c1, c1.CPUs()-1, msr.MSR_PKG_POWER_LIMIT, 0)
	writeMSR(t, c1, 0, msr.MSR_UNCORE_RATIO_LIMIT, 20|12<<8)
	c1.Run(5 * sim.Millisecond)
	c1.Release()
	c2, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if c2 != c1 {
		t.Fatal("fork after Release did not reuse the released child's storage")
	}
	for _, w := range []struct {
		cpu  int
		reg  uint32
		want uint64
	}{
		{2, msr.IA32_ENERGY_PERF_BIAS, 0xab0},
		{0, msr.IA32_PERF_CTL, 0xc0de<<32 | 20<<8},
		{c2.CPUs() - 1, msr.MSR_PKG_POWER_LIMIT, 1<<40 | 90*8 | 1<<15},
		{0, msr.MSR_UNCORE_RATIO_LIMIT, 28 | 13<<8},
	} {
		if got := readMSR(t, c2, w.cpu, w.reg); got != w.want {
			t.Errorf("recycled child reads %s = %#x on cpu %d, want the parent's %#x", msr.Name(w.reg), got, w.cpu, w.want)
		}
	}
	c2.Run(120 * sim.Millisecond)
	ref.Run(120 * sim.Millisecond)
	if got, want := fingerprint(t, c2), fingerprint(t, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("recycled child diverged from an unforked copy:\nreused:   %+v\nunforked: %+v", got, want)
	}
}

// TestForkReuseAfterChildReassign: a child that put a different
// constant kernel on the same active set is released, and its storage
// recycled. The recycled child must integrate with the parent's kernel,
// not with its previous tenant's.
func TestForkReuseAfterChildReassign(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		if err := s.AssignKernel(0, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
		s.Run(40 * sim.Millisecond)
	})
	ref, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	ref.Run(20 * sim.Millisecond)
	want := fingerprint(t, ref)

	c1, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := c1.AssignKernel(0, workload.MemStream(), 2); err != nil {
		t.Fatal(err)
	}
	c1.Run(5 * sim.Millisecond)
	c1.Release()
	c2, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if c2 != c1 {
		t.Fatal("fork after Release did not reuse the released child's storage")
	}
	c2.Run(20 * sim.Millisecond)
	if got := fingerprint(t, c2); !reflect.DeepEqual(got, want) {
		t.Errorf("recycled child diverged from a fresh child: cpu0 retired %d instructions, want %d",
			got.Instr[0], want.Instr[0])
	}
}

func TestForkReleaseConcurrentStress(t *testing.T) {
	sys := forkScenario(t, func(s *System) {
		for cpu := 0; cpu < s.CPUs(); cpu += 4 {
			if err := s.AssignKernel(cpu, workload.MemStream(), 1); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(30 * sim.Millisecond)
	})
	// Exact-bits digest of the observable state, cheap enough to compute
	// once per iteration.
	digest := func(s *System) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%x", math.Float64bits(s.ACPowerW()))
		for i := 0; i < s.Sockets(); i++ {
			sk := s.Socket(i)
			fmt.Fprintf(&b, ":%x:%x",
				math.Float64bits(sk.RAPL.Pkg.EnergyJoules()),
				math.Float64bits(sk.Power.TempC()))
		}
		for cpu := 0; cpu < s.CPUs(); cpu++ {
			sn := s.Core(cpu).Snapshot()
			fmt.Fprintf(&b, ":%d:%d:%d", sn.TSC, sn.APERF, sn.MPERF)
		}
		fmt.Fprintf(&b, ":%d", s.Trace().SpansRecorded())
		return b.String()
	}
	ref, err := sys.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	ref.Run(5 * sim.Millisecond)
	want := digest(ref)

	const workers = 8
	const iters = 6
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < iters; i++ {
				child, err := sys.Fork()
				if err != nil {
					errc <- err
					return
				}
				child.Run(5 * sim.Millisecond)
				if got := digest(child); got != want {
					errc <- fmt.Errorf("iteration %d: child diverged:\ngot  %s\nwant %s", i, got, want)
					return
				}
				child.Release()
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestForkLeavesOtherPlatformsAlone: forking one platform copies only
// that platform's state, so an unrelated platform running next to it
// keeps its storage and its PCU steady-tick memo, and its steady Run
// allocates nothing however many forks happen elsewhere.
func TestForkLeavesOtherPlatformsAlone(t *testing.T) {
	a, b := benchSystem(t), benchSystem(t)
	if allocs := testing.AllocsPerRun(100, func() {
		child, err := b.Fork()
		if err != nil {
			t.Fatal(err)
		}
		child.Release()
		a.Run(sim.Millisecond)
	}); allocs != 0 {
		t.Fatalf("fork of B plus a steady 1 ms of A allocates %.1f objects/op; want 0", allocs)
	}
}

// TestForkedSweepPointAllocs pins the pooled sweep point: fork the warm
// parent into a recycled child, change the operating point, run a
// millisecond and release, without allocating.
func TestForkedSweepPointAllocs(t *testing.T) {
	sys := benchSystem(t)
	spec := sys.Spec()
	if allocs := testing.AllocsPerRun(100, func() {
		child, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		child.SetPStateAll(spec.MinMHz)
		child.Run(sim.Millisecond)
		child.Release()
	}); allocs != 0 {
		t.Fatalf("pooled fork, SetPStateAll, 1 ms and Release allocate %.1f objects/op; want 0", allocs)
	}
}
