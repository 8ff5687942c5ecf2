package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/msr"
	"hswsim/internal/pcu"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Per-segment and per-tick work follows the active cores: residency is
// credited lazily, the TSC is one node-wide count, the leakage replay
// visits only leaking cores, a replayed PCU decision skips the grant
// pass while the grants are settled, a socket of constant kernels past
// their AVX ramps passes the steady check without visiting a core, and
// a package whose uncore is halted takes the PCU's steady tick. These
// tests pin the contract: switching any of the last three off
// (debugNoGrantSkip, debugNoConstSteady, pcu.DebugNoHaltedSteadyTick)
// changes no output byte, with the steady replay on and off, and the
// lazy counters read exactly what per-segment accounting would.

// checkSegCostInvariant renders scenario with each of the grant skip,
// the constant-load steady check and the halted steady tick on and off,
// each with the steady replay on and forced off, and requires every
// render to be identical.
func checkSegCostInvariant(t *testing.T, scenario func(t *testing.T) string) {
	t.Helper()
	checkOffSwitch(t, &debugNoGrantSkip, "grant skip off", scenario)
	checkOffSwitch(t, &debugNoConstSteady, "constant steady check off", scenario)
	checkOffSwitch(t, &pcu.DebugNoHaltedSteadyTick, "halted steady tick off", scenario)
}

// TestSegCostMixedLoad: the benchmark's mixed steady load, long enough
// for the grants to settle and the PCU to replay.
func TestSegCostMixedLoad(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys := benchSystem(t)
		sys.Run(150 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSegCostFirestarterTurbo: Table V's FIRESTARTER on every core at
// turbo, held at TDP by the PCU's throttle.
func TestSegCostFirestarterTurbo(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys := tableVSystem(t, workload.Firestarter())
		sys.Run(200 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// slowSwitchSystem builds the default node with a p-state switch time
// longer than a grid period, so the tick after a grant finds the
// transition still in flight.
func slowSwitchSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	spec := *cfg.Spec
	spec.PStateSwitchUS = 700
	cfg.Spec = &spec
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSegCostRetargetMidFlight: the PCU retargets a grant while its
// transition is in flight. The retarget is ignored until the transition
// lands; the next, replayed, decision must then start the transition to
// the new target even though the decision itself has not changed.
func TestSegCostRetargetMidFlight(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys := slowSwitchSystem(t)
		sys.EnableTrace(switchTraceCap)
		for cpu := 0; cpu < 3; cpu++ {
			assignOrFail(t, sys, cpu, workload.Compute())
		}
		if err := sys.SetPState(0, 1500); err != nil {
			t.Fatal(err)
		}
		sys.Run(20 * sim.Millisecond)
		c := sys.Core(0)
		if _, inflight := c.dom.InFlight(); inflight || c.FreqMHz() != 1500 {
			t.Fatalf("warm-up left cpu0 at %v (in flight %v), want settled at 1500 MHz",
				c.FreqMHz(), inflight)
		}

		if err := sys.SetPState(0, 2000); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			if _, inflight := c.dom.InFlight(); inflight {
				break
			}
			if i == 100 {
				t.Fatal("no grant within 1 ms of the request")
			}
			sys.Run(10 * sim.Microsecond)
		}
		grantedAt := sys.Now()
		// Retarget while 2000 MHz is in flight: the next tick decides
		// 1800 MHz, which has to wait for the landing.
		if err := sys.SetPState(0, 1800); err != nil {
			t.Fatal(err)
		}
		sys.Run(10 * sim.Millisecond)

		var to []uarch.MHz
		for _, sw := range pstateSwitches(t, sys, 0) {
			if sw.grantedAt >= grantedAt-10*sim.Microsecond {
				to = append(to, sw.to)
			}
		}
		if len(to) != 2 || to[0] != 2000 || to[1] != 1800 || c.FreqMHz() != 1800 {
			t.Fatalf("cpu0 transitions since the grant %v, now %v MHz; want [2000 1800] ending at 1800",
				to, c.FreqMHz())
		}
		sys.Run(30 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSegCostImmediateGrantOverridden: on a part without an
// opportunity grid a p-state write starts its transition at once,
// outside the grant pass. Rewriting a core's unchanged setting on the
// single-domain Sandy Bridge node drops that core below the domain's
// shared grant; the PCU's next decision, replayed unchanged, must pull
// it back up.
func TestSegCostImmediateGrantOverridden(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(SandyBridgeConfig())
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableTrace(switchTraceCap)
		assignOrFail(t, sys, 0, workload.Compute())
		assignOrFail(t, sys, 1, workload.Compute())
		for cpu, f := range []uarch.MHz{2000, 1500} {
			if err := sys.SetPState(cpu, f); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run(20 * sim.Millisecond)
		c := sys.Core(1)
		if c.FreqMHz() != 2000 {
			t.Fatalf("cpu1 runs %v after warm-up, want the shared 2000 MHz", c.FreqMHz())
		}
		before := len(pstateSwitches(t, sys, 1))
		if err := sys.SetPState(1, 1500); err != nil {
			t.Fatal(err)
		}
		sys.Run(5 * sim.Millisecond)
		var to []uarch.MHz
		for _, sw := range pstateSwitches(t, sys, 1)[before:] {
			to = append(to, sw.to)
		}
		if len(to) != 2 || to[0] != 1500 || to[1] != 2000 || c.FreqMHz() != 2000 {
			t.Fatalf("cpu1 transitions after the rewrite %v, now %v MHz; want [1500 2000] ending at 2000",
				to, c.FreqMHz())
		}
		sys.Run(20 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSegCostSleepWakeChurn: cores repeatedly idled into C1/C3/C6 and
// woken across and within sockets, so the leaking-core set, the
// residency bins and the settled state all churn.
func TestSegCostSleepWakeChurn(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := sys.Spec().Cores
		assignOrFail(t, sys, 0, workload.Compute())
		assignOrFail(t, sys, n, workload.Memory())
		for cpu := 1; cpu < 6; cpu++ {
			assignOrFail(t, sys, cpu, workload.Sqrt())
		}
		sys.Run(15 * sim.Millisecond)
		states := []cstate.State{cstate.C1, cstate.C3, cstate.C6}
		for round := 0; round < 6; round++ {
			for i, cpu := range []int{1, 2, 3, 4, 5} {
				if (cpu+round)%2 == 0 {
					continue
				}
				assignOrFail(t, sys, cpu, nil)
				if err := sys.SleepCore(cpu, states[(i+round)%len(states)]); err != nil {
					t.Fatal(err)
				}
			}
			sys.Run(3 * sim.Millisecond)
			for _, cpu := range []int{1, 2, 3, 4, 5} {
				if sys.CoreCState(cpu) == cstate.C0 {
					continue
				}
				waker := 0
				if cpu%2 == 1 {
					waker = n // a remote wake
				}
				if _, err := sys.WakeCore(waker, cpu, workload.Sqrt()); err != nil {
					t.Fatal(err)
				}
			}
			sys.Run(4 * sim.Millisecond)
		}
		sys.Run(20 * sim.Millisecond)
		return renderOutputs(t, sys)
	})
}

// TestSegCostForkWhileSettled: a fork taken while both sockets' grants
// are settled. Parent and child must each evolve as an unforked system
// does, the child through a p-state change of its own.
func TestSegCostForkWhileSettled(t *testing.T) {
	const d = 40 * sim.Millisecond
	diverge := func(t *testing.T, sys *System) {
		if err := sys.SetPState(1, 1600); err != nil {
			t.Fatal(err)
		}
	}
	checkSegCostInvariant(t, func(t *testing.T) string {
		plain := benchSystem(t)
		plain.Run(d)
		changed := benchSystem(t)
		diverge(t, changed)
		changed.Run(d)

		sys := benchSystem(t)
		for i := 0; i < sys.Sockets(); i++ {
			if !sys.Socket(i).grantsSettled {
				t.Fatalf("socket %d grants not settled at the fork", i)
			}
		}
		child, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		diverge(t, child)
		child.Run(d)
		sys.Run(d)

		parentRef, childRef := renderOutputs(t, plain), renderOutputs(t, changed)
		if got := renderOutputs(t, sys); got != parentRef {
			t.Fatalf("parent diverged from an unforked run: %s", firstDiff(parentRef, got))
		}
		if got := renderOutputs(t, child); got != childRef {
			t.Fatalf("child diverged from an unforked run of the same change: %s",
				firstDiff(childRef, got))
		}
		return parentRef + childRef
	})
}

// TestSegCostAVXRampOnSettledSocket: FIRESTARTER assigned to an idle
// core of a settled socket of constant kernels, at offsets spread over
// one grid period on both sockets in turn. Each assignment starts a
// 500 µs AVX ramp that lies ahead of the socket's next tick, and the
// other socket's ticks cut the socket's segments inside the ramp: a
// segment integrated in full at the ramp's slowdown may be followed by
// an undirtied one that ends past the ramp, which must not replay the
// slowed rate.
func TestSegCostAVXRampOnSettledSocket(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := sys.Spec().Cores
		for _, cpu := range []int{0, 1, n, n + 1} {
			assignOrFail(t, sys, cpu, workload.Compute())
		}
		sys.Run(20 * sim.Millisecond)
		for i := 0; i < sys.Sockets(); i++ {
			if !sys.Socket(i).constSteady {
				t.Fatalf("socket %d of constant kernels is not constSteady after the warm-up", i)
			}
		}
		for k := 0; k < 10; k++ {
			cpu := 2 + k/2 + k%2*n
			sys.Run(sim.Time(50*k+37) * sim.Microsecond)
			assignOrFail(t, sys, cpu, workload.Firestarter())
			if sk := sys.Socket(k % 2); sk.cores[cpu%n].avxSlowUntil <= sys.Now() {
				t.Fatalf("FIRESTARTER on cpu%d started no AVX ramp", cpu)
			}
			sys.Run(3 * sim.Millisecond)
		}
		sys.Run(10 * sim.Millisecond)
		for i := 0; i < sys.Sockets(); i++ {
			if !sys.Socket(i).constSteady {
				t.Fatalf("socket %d is not constSteady once every ramp has ended", i)
			}
		}
		return renderOutputs(t, sys)
	})
}

// TestSegCostIdleNodeWake: the all-idle node sinks to PC6, where the
// halted uncores take the PCU's steady tick; one core then runs a kernel
// and sleeps again, so both packages leave PC6 and sink back into it.
// Each state lasts long enough for the ticks to settle.
func TestSegCostIdleNodeWake(t *testing.T) {
	checkSegCostInvariant(t, func(t *testing.T) string {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inPC6 := func(want bool) {
			t.Helper()
			for i := 0; i < sys.Sockets(); i++ {
				if got := sys.Socket(i).PkgCState(); (got == cstate.PC6) != want {
					t.Fatalf("socket %d in %v at %v (want PC6: %v)", i, got, sys.Now(), want)
				}
			}
		}
		sys.Run(20 * sim.Millisecond)
		inPC6(true)
		assignOrFail(t, sys, 3, workload.Compute())
		sys.Run(10 * sim.Millisecond)
		inPC6(false)
		assignOrFail(t, sys, 3, nil)
		if err := sys.SleepCore(3, cstate.C6); err != nil {
			t.Fatal(err)
		}
		sys.Run(30 * sim.Millisecond)
		inPC6(true)
		return renderOutputs(t, sys)
	})
}

// switchTraceCap is the trace capacity of the tests that rebuild p-state
// history from the trace: large enough that pstateSwitches sees every
// span, which it checks.
const switchTraceCap = 1 << 16

// pstateSwitch is one completed p-state transition as the trace records
// it: a SpanPStateSwitch span runs from the PCU grant to the completion
// instant and is labelled "<from> -> <to>".
type pstateSwitch struct {
	grantedAt, completedAt sim.Time
	to                     uarch.MHz
}

// pstateSwitches returns cpu's completed p-state transitions, oldest
// first, from the trace sys has recorded since it was built. It fails
// the test if the trace dropped a span, so the history is complete, or
// if the newest span disagrees with the domain's LastTransition, which
// pins its exact target (the label rounds to 10 MHz).
func pstateSwitches(t *testing.T, sys *System, cpu int) []pstateSwitch {
	t.Helper()
	tr := sys.Trace()
	if tr == nil {
		t.Fatal("p-state history needs tracing on")
	}
	if n := tr.SpanDrops(); n != 0 {
		t.Fatalf("trace dropped %d spans; the p-state history is incomplete", n)
	}
	var out []pstateSwitch
	for _, sp := range tr.Spans() {
		if sp.Kind != trace.SpanPStateSwitch || sp.CPU != cpu {
			continue
		}
		_, to, _ := strings.Cut(sp.Label, " -> ")
		var ghz float64
		if _, err := fmt.Sscanf(to, "%f GHz", &ghz); err != nil {
			t.Fatalf("p-state span label %q: %v", sp.Label, err)
		}
		f := uarch.MHz(math.Round(ghz * 1000))
		if f.String() != to {
			t.Fatalf("p-state span label %q does not name %v", sp.Label, f)
		}
		out = append(out, pstateSwitch{grantedAt: sp.Start, completedAt: sp.End, to: f})
	}
	last, ok := sys.Core(cpu).Domain().LastTransition()
	if n := len(out); ok != (n > 0) ||
		ok && out[n-1] != (pstateSwitch{last.GrantedAt, last.CompletedAt, last.To}) {
		t.Fatalf("cpu%d's p-state spans %+v end unlike its last transition %+v (recorded %v)",
			cpu, out, last, ok)
	}
	return out
}

// residencyOracle derives, independently of the bins, the residency
// per-segment accounting would hold: each core's c-state timeline as
// the test drives it, and its clock timeline from the trace's p-state
// switch spans.
type residencyOracle struct {
	sys *System
	cs  [][]csStamp // per CPU, in time order
	// from is each CPU's last ResetResidency instant.
	from []sim.Time
}

type csStamp struct {
	at sim.Time
	st cstate.State
}

// newResidencyOracle starts tracing on sys, which must not have run yet,
// so the trace holds every p-state transition the oracle reads.
func newResidencyOracle(sys *System) *residencyOracle {
	sys.EnableTrace(switchTraceCap)
	o := &residencyOracle{sys: sys, cs: make([][]csStamp, sys.CPUs()), from: make([]sim.Time, sys.CPUs())}
	for cpu := range o.cs {
		o.cs[cpu] = []csStamp{{0, sys.CoreCState(cpu)}}
	}
	return o
}

// fork returns the oracle of child, a fork of o's system.
func (o *residencyOracle) fork(child *System) *residencyOracle {
	f := &residencyOracle{sys: child, from: append([]sim.Time(nil), o.from...)}
	for _, l := range o.cs {
		f.cs = append(f.cs, append([]csStamp(nil), l...))
	}
	return f
}

func (o *residencyOracle) note(cpu int, at sim.Time, st cstate.State) {
	o.cs[cpu] = append(o.cs[cpu], csStamp{at, st})
}

func (o *residencyOracle) assign(t *testing.T, cpu int, k workload.Kernel) {
	t.Helper()
	assignOrFail(t, o.sys, cpu, k)
	o.note(cpu, o.sys.Now(), o.sys.CoreCState(cpu))
}

// sleep idles cpu if it is running and puts it into st.
func (o *residencyOracle) sleep(t *testing.T, cpu int, st cstate.State) {
	t.Helper()
	if o.sys.CoreCState(cpu) == cstate.C0 {
		o.assign(t, cpu, nil)
	}
	if err := o.sys.SleepCore(cpu, st); err != nil {
		t.Fatal(err)
	}
	o.note(cpu, o.sys.Now(), st)
}

// wake wakes wakee; the caller must run past the wake latency before
// the next check.
func (o *residencyOracle) wake(t *testing.T, waker, wakee int, k workload.Kernel) {
	t.Helper()
	res, err := o.sys.WakeCore(waker, wakee, k)
	if err != nil {
		t.Fatal(err)
	}
	o.note(wakee, o.sys.Now()+res.Latency, cstate.C0)
}

func (o *residencyOracle) reset(cpu int) {
	o.sys.ResetResidency(cpu)
	o.from[cpu] = o.sys.Now()
}

// want returns the residency cpu should report now.
func (o *residencyOracle) want(t *testing.T, cpu int) Residency {
	t.Helper()
	spec := o.sys.Spec()
	sws := pstateSwitches(t, o.sys, cpu)
	cuts := []sim.Time{o.from[cpu], o.sys.Now()}
	for _, c := range o.cs[cpu] {
		cuts = append(cuts, c.at)
	}
	for _, sw := range sws {
		cuts = append(cuts, sw.completedAt)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := Residency{PState: map[uarch.MHz]sim.Time{}, CState: map[cstate.State]sim.Time{}}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a < o.from[cpu] || b > o.sys.Now() || a == b {
			continue
		}
		var st cstate.State
		for _, c := range o.cs[cpu] {
			if c.at <= a {
				st = c.st
			}
		}
		f := spec.MinMHz
		for _, sw := range sws {
			if sw.completedAt <= a {
				f = sw.to
			}
		}
		out.CState[st] += b - a
		if st == cstate.C0 {
			out.PState[f] += b - a
		}
	}
	return out
}

// check requires every core's residency to equal the oracle's, and its
// c-state bins to sum exactly to the time integrated since its last
// reset.
func (o *residencyOracle) check(t *testing.T) {
	t.Helper()
	for cpu := 0; cpu < o.sys.CPUs(); cpu++ {
		got := o.sys.CoreResidency(cpu)
		if want := o.want(t, cpu); !reflect.DeepEqual(got, want) {
			t.Fatalf("cpu%d residency at %v:\n got %v %v\nwant %v %v",
				cpu, o.sys.Now(), got.PState, got.CState, want.PState, want.CState)
		}
		if tot, want := got.Total(), o.sys.Now()-o.from[cpu]; tot != want {
			t.Fatalf("cpu%d c-state residency sums to %v, want the integrated %v", cpu, tot, want)
		}
	}
}

// churn drives a load that moves cores through several p-states and
// c-states, ending with every wake landed.
func (o *residencyOracle) churn(t *testing.T) {
	t.Helper()
	sys := o.sys
	n := sys.Spec().Cores
	o.assign(t, 0, workload.Firestarter())
	o.assign(t, 1, workload.Sinus(20*sim.Millisecond))
	o.assign(t, n+2, workload.Memory())
	sys.RequestTurbo()
	sys.Run(17 * sim.Millisecond)
	if err := sys.SetPState(1, 1400); err != nil {
		t.Fatal(err)
	}
	o.sleep(t, n+2, cstate.C3)
	o.sleep(t, 4, cstate.C1)
	sys.Run(9*sim.Millisecond + 123)
	o.wake(t, 0, n+2, workload.Compute())
	o.wake(t, 1, 4, workload.Sqrt())
	sys.Run(11*sim.Millisecond + 7)
}

// TestResidencyMatchesTimeline: lazily credited residency holds exactly
// what per-segment accounting would, bin for bin, and its c-state bins
// sum to the integrated time — across ResetResidency, a fork, and
// p-state and c-state changes on both sides of the fork.
func TestResidencyMatchesTimeline(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := newResidencyOracle(sys)
	o.churn(t)
	o.check(t)

	// Reset a busy, a woken and a never-used core, away from the last
	// read, then keep changing state.
	sys.Run(3*sim.Millisecond + 5)
	for _, cpu := range []int{0, sys.Spec().Cores + 2, 9} {
		o.reset(cpu)
	}
	sys.Run(2 * sim.Millisecond)
	o.sleep(t, 0, cstate.C6)
	sys.Run(sim.Millisecond)
	o.sleep(t, 9, cstate.C1) // straight from the idle C6
	sys.Run(6*sim.Millisecond + 31)
	o.sleep(t, 9, cstate.C3)
	sys.Run(sim.Millisecond + 1)
	o.check(t)

	child, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	co := o.fork(child)
	sys.Run(4 * sim.Millisecond)
	co.reset(1)
	co.sleep(t, 7, cstate.C1)
	child.Run(8 * sim.Millisecond)
	co.wake(t, 1, 7, workload.Compute())
	child.Run(5 * sim.Millisecond)
	o.assign(t, 7, workload.Memory())
	sys.Run(5 * sim.Millisecond)
	co.check(t)
	o.check(t)
}

// checkOneTSC requires every core of sys to read the same TSC, through
// both the counter snapshot and the MSR, and returns it.
func checkOneTSC(t *testing.T, sys *System) uint64 {
	t.Helper()
	want := sys.Core(0).Snapshot().TSC
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		v, err := sys.ReadMSR(cpu, msr.IA32_TIME_STAMP_COUNTER)
		if err != nil {
			t.Fatal(err)
		}
		if s := sys.Core(cpu).Snapshot().TSC; s != want || v != want {
			t.Fatalf("cpu%d reads TSC %d (MSR %d), cpu0 reads %d", cpu, s, v, want)
		}
	}
	return want
}

// TestEveryCoreReadsSameTSC: the TSC is one node-wide count, busy and
// sleeping cores alike, in a fork too, and it runs at the base clock.
func TestEveryCoreReadsSameTSC(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	newResidencyOracle(sys).churn(t)
	tsc := checkOneTSC(t, sys)
	secs := sys.Now().Seconds()
	if want := sys.Spec().BaseMHz.GHz() * 1e9 * secs; float64(tsc) < want-1 || float64(tsc) > want+1 {
		t.Fatalf("TSC = %d after %v, want %.0f (base clock)", tsc, sys.Now(), want)
	}
	child, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if got := checkOneTSC(t, child); got != tsc {
		t.Fatalf("fork child reads TSC %d, parent %d", got, tsc)
	}
	child.Run(3 * sim.Millisecond)
	if got := checkOneTSC(t, child); got <= tsc {
		t.Fatalf("fork child TSC %d did not advance past %d", got, tsc)
	}
}

// TestIdleCoreOnlyTSCAdvances: a sleeping core's TSC keeps counting
// (it is invariant), while its C0 counters stand still.
func TestIdleCoreOnlyTSCAdvances(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	assignOrFail(t, sys, 0, workload.Compute())
	sys.Run(50 * sim.Millisecond)
	s := sys.Core(5).Snapshot()
	if s.TSC == 0 {
		t.Fatal("TSC must be invariant (advances while idle)")
	}
	if s.APERF != 0 || s.MPERF != 0 || s.Instructions != 0 {
		t.Fatalf("idle core advanced C0 counters: %+v", s)
	}
}
