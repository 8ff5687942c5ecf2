package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/pcu"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// A socket's operating-point table outlives the full segment that built
// it: a grouping input (a kernel or thread assignment, a fork) rebuilds
// it, a p-state landing moves the landed core, and otherwise it is kept.
// Sleeping an idle core and a chip-variation overlay change no grouping
// input, so they keep it. These tests pin the
// contract: rebuilding the table on every full segment
// (debugRegroupEverySegment) changes no output byte, with the steady
// replay on and forced off. checkPointsInvariant runs the six
// points_test.go scenarios under the same switch.

// checkTableInvariant renders scenario with the table kept and with it
// rebuilt on every full segment, each with the steady replay on and
// forced off, and requires all four renders to be identical.
func checkTableInvariant(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	checkOffSwitch(t, &debugRegroupEverySegment, "regroup every segment", scenario)
}

// checkTableKept requires, unless every segment regroups, that some
// full segment on some socket of sys kept or moved its table instead of
// rebuilding it, so the scenario exercises the paths under test.
func checkTableKept(t *testing.T, sys *System) {
	t.Helper()
	if debugRegroupEverySegment {
		return
	}
	for _, sk := range sys.sockets {
		if sk.statRegroup < sk.statFull {
			return
		}
	}
	t.Fatal("every full segment rebuilt its operating-point table")
}

// capBurstSystem builds the default node (Hyper-Threading on) with
// FIRESTARTER on both threads of every core at turbo, settled for
// 20 ms, then caps both sockets at 85 W: over the next grid ticks the
// PCU lowers the cores' clocks one landing at a time.
func capBurstSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.RequestTurbo()
	sys.Run(20 * sim.Millisecond)
	for s := 0; s < sys.Sockets(); s++ {
		if err := sys.SetPowerLimitW(s, 85); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestPointTableCapBurst: the fleet study's node, a burst of per-core
// landings under an 85 W cap.
func TestPointTableCapBurst(t *testing.T) {
	checkTableInvariant(t, func(t *testing.T) string {
		sys := capBurstSystem(t)
		sys.Run(10 * sim.Millisecond)
		checkTableKept(t, sys)
		return renderOutputs(t, sys)
	})
}

// TestPointTableSleepWake: phase-varying cores go idle, sleep in C3 and
// C6, and are woken mid-run by a busy core, each wake landing between
// grid ticks.
func TestPointTableSleepWake(t *testing.T) {
	checkTableInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < 8; cpu++ {
			assignOrFail(t, sys, cpu, workload.Mprime())
		}
		for cpu := 12; cpu < 16; cpu++ {
			if err := sys.AssignKernel(cpu, workload.Linpack(), 2); err != nil {
				t.Fatal(err)
			}
		}
		sys.RequestTurbo()
		sys.Run(10 * sim.Millisecond)
		for _, s := range []struct {
			cpu int
			st  cstate.State
		}{{3, cstate.C3}, {14, cstate.C6}} {
			assignOrFail(t, sys, s.cpu, nil)
			if err := sys.SleepCore(s.cpu, s.st); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run(3 * sim.Millisecond)
		if _, err := sys.WakeCore(0, 3, workload.Mprime()); err != nil {
			t.Fatal(err)
		}
		sys.Run(4 * sim.Millisecond)
		if _, err := sys.WakeCore(12, 14, nil); err != nil {
			t.Fatal(err)
		}
		sys.Run(6 * sim.Millisecond)
		checkTableKept(t, sys)
		return renderOutputs(t, sys)
	})
}

// TestPointTableStaggeredPhases: LINPACK started 40 ms apart on two
// halves of socket 0's first ring class. Its profile is piecewise
// constant, so the halves run equal profiles through most of a step
// but under different leaders, until the first half enters its panel
// phase at 144 ms. A point they shared while equal would carry the
// first half's panel profile to the second.
func TestPointTableStaggeredPhases(t *testing.T) {
	checkTableInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < 4; cpu++ {
			assignOrFail(t, sys, cpu, workload.Linpack())
		}
		sys.RequestTurbo()
		sys.Run(40 * sim.Millisecond)
		for cpu := 4; cpu < 8; cpu++ {
			assignOrFail(t, sys, cpu, workload.Linpack())
		}
		sys.Run(130 * sim.Millisecond)
		checkTableKept(t, sys)
		return renderOutputs(t, sys)
	})
}

// TestPointTableChipVariation: a chip-variation overlay lands mid-run
// on Table V's LINPACK node.
func TestPointTableChipVariation(t *testing.T) {
	checkTableInvariant(t, func(t *testing.T) string {
		sys := tableVSystem(t, workload.Linpack())
		sys.Run(20 * sim.Millisecond)
		if err := sys.ApplyChipVariation(0, ChipVariation{LeakScale: 1.2, CeffScale: 1.05, VminOffsetV: 0.02}); err != nil {
			t.Fatal(err)
		}
		sys.Run(15 * sim.Millisecond)
		checkTableKept(t, sys)
		return renderOutputs(t, sys)
	})
}

// TestPointTableForkMidBurst: a fork taken while the cap's landings are
// in flight, into the storage of a released child that had put
// MemStream on socket 0. The recycled child must not integrate with the
// old tenant's table, nor with the parent's.
func TestPointTableForkMidBurst(t *testing.T) {
	checkTableInvariant(t, func(t *testing.T) string {
		sys := capBurstSystem(t)
		sys.Run(700 * sim.Microsecond)
		c1, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < c1.Spec().Cores; cpu++ {
			assignOrFail(t, c1, cpu, workload.MemStream())
		}
		c1.Run(3 * sim.Millisecond)
		c1.Release()
		c2, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if c2 != c1 {
			t.Fatal("fork after Release did not reuse the released child's storage")
		}
		c2.Run(8 * sim.Millisecond)
		checkTableKept(t, c2)
		return renderOutputs(t, c2)
	})
}

// FuzzPointTable decodes its input into at most 32 operations on the
// default node (Hyper-Threading on) and runs them with the
// operating-point table rebuilt on every full segment, then with every
// fast path on, then with the constant-load steady check off and with
// the halted steady tick off. It requires the summed RAPL energy and
// every core's counter snapshot to agree bit for bit, and each socket's
// full and replayed segments, core loads and points to agree in count.
func FuzzPointTable(f *testing.F) {
	for _, seed := range pointTableSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		defer func() {
			debugRegroupEverySegment, debugNoConstSteady, pcu.DebugNoHaltedSteadyTick = false, false, false
		}()
		debugRegroupEverySegment = true
		want := runPointTableOps(t, ops)
		debugRegroupEverySegment = false
		for _, sw := range []struct {
			off  *bool
			name string
		}{
			{new(bool), "every fast path on"}, // a switch nothing reads
			{&debugNoConstSteady, "the constant-load steady check off"},
			{&pcu.DebugNoHaltedSteadyTick, "the halted steady tick off"},
		} {
			*sw.off = true
			got := runPointTableOps(t, ops)
			*sw.off = false
			if got != want {
				t.Fatalf("the run with %s diverges from the table rebuilt every segment: %s",
					sw.name, firstDiff(want, got))
			}
		}
	})
}

// The FuzzPointTable operations. Each takes three bytes: the opcode,
// then a and b. a names a CPU; a%(CPUs+1) == CPUs names every CPU.
const (
	opAssign = iota // kernel b%5 (idle, FIRESTARTER, LINPACK, mprime, Memory), threads 1+b/5%2
	opSleep         // idle state b%3 (C1, C3, C6); refused for a busy core
	opPState        // p-state b%(len(PStates)+1), the last being the turbo setting
	opLimit         // socket a%Sockets capped at b W (0 restores the rated TDP)
	opRun           // run 50 µs + (a<<8|b)%2951 µs
	opFork          // fork, release the old system, continue on the child
	numPointTableOps
)

// pointTableOp encodes one FuzzPointTable operation.
func pointTableOp(op, a, b int) []byte { return []byte{byte(op), byte(a), byte(b)} }

// pointTableRun encodes a run of us microseconds (50–3000).
func pointTableRun(us int) []byte { return pointTableOp(opRun, (us-50)>>8, (us-50)&0xff) }

// pointTableSeeds are the differential scenarios above, cut to 32
// operations: the 85 W landing burst, sleep and wake, a fork chain
// whose third fork recycles a child that ran another kernel, and the
// idle node in PC6 around one core's run.
func pointTableSeeds() [][]byte {
	cfg := DefaultConfig()
	all := cfg.Sockets * cfg.Spec.Cores // a == CPUs: every CPU
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	turbo := pointTableOp(opPState, all, len(cfg.Spec.PStates()))
	burst := cat(pointTableOp(opAssign, all, 1+5), turbo,
		pointTableRun(3000), pointTableRun(3000), pointTableRun(3000),
		pointTableOp(opLimit, 0, 85), pointTableOp(opLimit, 1, 85))
	return [][]byte{
		cat(burst, pointTableRun(800), pointTableRun(1200), pointTableRun(3000), pointTableRun(2500)),
		cat(pointTableOp(opAssign, all, 3), pointTableOp(opAssign, 12, 2+5), turbo,
			pointTableRun(3000), pointTableRun(2000),
			pointTableOp(opAssign, 3, 0), pointTableOp(opSleep, 3, 1),
			pointTableOp(opAssign, 14, 0), pointTableOp(opSleep, 14, 2),
			pointTableRun(1500), pointTableOp(opAssign, 3, 3), pointTableRun(700),
			pointTableOp(opAssign, 14, 2), pointTableRun(3000)),
		cat(burst, pointTableRun(700), pointTableOp(opFork, 0, 0),
			pointTableOp(opAssign, 0, 4), pointTableOp(opAssign, 5, 4+5), pointTableRun(1000),
			pointTableOp(opFork, 0, 0), pointTableRun(600), pointTableOp(opFork, 0, 0),
			pointTableOp(opPState, 7, 3), pointTableRun(3000), pointTableRun(2000)),
		cat(pointTableRun(3000), pointTableRun(3000), pointTableOp(opAssign, 3, 4), pointTableRun(2000),
			pointTableOp(opAssign, 3, 0), pointTableOp(opSleep, 3, 2), pointTableRun(3000), pointTableRun(3000)),
	}
}

// runPointTableOps runs the decoded operations on a fresh default node
// and renders what FuzzPointTable compares.
func runPointTableOps(t *testing.T, ops []byte) string {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	kernels := []workload.Kernel{nil, workload.Firestarter(), workload.Linpack(), workload.Mprime(), workload.Memory()}
	states := []cstate.State{cstate.C1, cstate.C3, cstate.C6}
	ladder := append(sys.Spec().PStates(), sys.Spec().TurboSettingMHz())
	for n := 0; n < 32 && len(ops) >= 3; n++ {
		op, a, b := ops[0]%numPointTableOps, int(ops[1]), int(ops[2])
		ops = ops[3:]
		switch op {
		case opLimit:
			if err := sys.SetPowerLimitW(a%sys.Sockets(), float64(b)); err != nil {
				t.Fatal(err)
			}
		case opRun:
			sys.Run(50*sim.Microsecond + sim.Time((a<<8|b)%2951)*sim.Microsecond)
		case opFork:
			child, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			sys.Release()
			sys = child
		default: // per-CPU operations
			lo, hi := a%(sys.CPUs()+1), a%(sys.CPUs()+1)+1
			if lo == sys.CPUs() {
				lo, hi = 0, sys.CPUs()
			}
			for cpu := lo; cpu < hi; cpu++ {
				var err error
				switch op {
				case opAssign:
					err = sys.AssignKernel(cpu, kernels[b%len(kernels)], 1+b/len(kernels)%2)
				case opSleep:
					if sys.Core(cpu).kernel != nil {
						continue
					}
					err = sys.SleepCore(cpu, states[b%len(states)])
				case opPState:
					err = sys.SetPState(cpu, ladder[b%len(ladder)])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "rapl %x\n", math.Float64bits(sys.TotalRAPLEnergyJ()))
	for _, sk := range sys.sockets {
		fmt.Fprintf(&out, "socket%d full=%d replayed=%d loads=%d points=%d\n",
			sk.Index, sk.statFull, sk.statReplay, sk.statLoads, sk.statPoints)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		s := sys.Core(cpu).Snapshot()
		fmt.Fprintf(&out, "cpu%d tsc=%d aperf=%d mperf=%d inst=%d\n", cpu, s.TSC, s.APERF, s.MPERF, s.Instructions)
	}
	return out.String()
}
