package core

import (
	"fmt"

	"hswsim/internal/cstate"
	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// SleepCore puts an idle core into the given c-state (the idle-governor
// decision the c-state latency tools control explicitly). The core must
// not be running a kernel.
func (s *System) SleepCore(cpu int, st cstate.State) error {
	c := s.coreOf(cpu)
	if c == nil {
		return fmt.Errorf("core: no cpu %d", cpu)
	}
	if c.kernel != nil {
		return fmt.Errorf("core: cpu %d is running %q", cpu, c.kernel.Name())
	}
	if st == cstate.C0 {
		return fmt.Errorf("core: C0 is not an idle state")
	}
	now := s.Engine.Now()
	s.integrateTo(now)
	c.creditResidency()
	prev := c.cstateNow
	c.cstateNow = st
	s.maxReqValid = false
	c.sk.telChanged()
	if tr := s.trace; tr != nil && prev != st {
		tr.Begin(now, trace.SpanCState, c.sk.Index, c.CPU, st.String())
	}
	c.sk.markDirty()
	s.refreshPackageStates()
	return nil
}

// WakeResult describes one cross-core wake measurement.
type WakeResult struct {
	Scenario  cstate.Scenario
	FromState cstate.State
	PkgState  cstate.PkgState
	// Latency is the time from the waker's store until the wakee
	// executes in C0 — what the paper's wake-up benchmark measures.
	Latency sim.Time
}

// WakeCore wakes wakee from its c-state, initiated by waker (which must
// be active). The wakee resumes with the given kernel (nil = busy wait).
// Returns the wake latency; the wakee is in C0 after that latency has
// elapsed in virtual time.
func (s *System) WakeCore(waker, wakee int, k workload.Kernel) (WakeResult, error) {
	wk := s.coreOf(waker)
	we := s.coreOf(wakee)
	if wk == nil || we == nil {
		return WakeResult{}, fmt.Errorf("core: bad cpu pair %d,%d", waker, wakee)
	}
	if wk.cstateNow != cstate.C0 {
		return WakeResult{}, fmt.Errorf("core: waker %d is not running", waker)
	}
	if we.cstateNow == cstate.C0 {
		return WakeResult{}, fmt.Errorf("core: wakee %d is already awake", wakee)
	}
	s.integrateTo(s.Engine.Now())
	now := s.Engine.Now()

	// Scenario classification (Figures 5/6): local = same package;
	// remote with the wakee's package in (or just leaving) a sleep
	// state = "remote idle".
	const pkgExitWindow = 10 * sim.Microsecond
	pkgState := we.sk.pkgCState
	if !cstate.UncoreHalted(pkgState) &&
		cstate.UncoreHalted(we.sk.prevDeepState) && now-we.sk.leftDeepAt <= pkgExitWindow {
		pkgState = we.sk.prevDeepState
	}
	var sc cstate.Scenario
	switch {
	case wk.sk == we.sk:
		sc = cstate.Local
	case cstate.UncoreHalted(pkgState):
		sc = cstate.RemoteIdle
	default:
		sc = cstate.RemoteActive
	}

	model := cstate.LatencyModel{Gen: s.cfg.Spec.Generation}
	// Waker-side cost: the store + inter-processor signalling, clocked
	// by the waker.
	wakerGHz := wk.dom.Granted().GHz()
	overhead := sim.Time(0.5 / wakerGHz * float64(sim.Microsecond))
	// The wakee resumes at its *requested* p-state (the PCU parks
	// sleeping cores at the minimum, but the wake flow ramps straight
	// to the run voltage/frequency).
	wakeeF := we.dom.Requested()
	if wakeeF > s.cfg.Spec.BaseMHz {
		wakeeF = s.cfg.Spec.BaseMHz
	}
	lat := overhead + model.ExitLatency(we.cstateNow, sc, wakeeF)

	res := WakeResult{
		Scenario:  sc,
		FromState: we.cstateNow,
		PkgState:  pkgState,
		Latency:   lat,
	}
	if k == nil {
		k = workload.BusyWait()
	}
	s.Engine.At(now+lat, func(t sim.Time) {
		s.integrateTo(t)
		if tr := s.trace; tr != nil {
			tr.Addf(trace.SpanWake, we.sk.Index, we.CPU, now, t,
				"%v %v", res.FromState, res.Scenario)
		}
		we.assign(t, k, 1)
		s.refreshPackageStates()
	})
	return res, nil
}

// CoreFreqMHz returns a core's current running frequency.
func (s *System) CoreFreqMHz(cpu int) uarch.MHz {
	c := s.coreOf(cpu)
	if c == nil {
		return 0
	}
	return c.FreqMHz()
}

// CoreCState returns a core's current idle state.
func (s *System) CoreCState(cpu int) cstate.State {
	c := s.coreOf(cpu)
	if c == nil {
		return cstate.C0
	}
	return c.cstateNow
}

// Core returns the core object for a CPU (tool-level access to counters
// and the p-state domain).
func (s *System) Core(cpu int) *Core { return s.coreOf(cpu) }

// maxPowerLimitW is the largest limit MSR_PKG_POWER_LIMIT's 15-bit
// field holds in 1/8 W units.
const maxPowerLimitW = float64(0x7FFF) / 8

// SetPowerLimitW programs a socket's enforced package power limit via
// the MSR_PKG_POWER_LIMIT path (1/8 W granularity). Zero restores the
// rated TDP. A limit that is not finite, is negative or exceeds the
// register field's 4095.875 W is refused and changes nothing: packed
// unchecked, 4100 W would wrap to a 4 W limit.
func (s *System) SetPowerLimitW(socket int, watts float64) error {
	if socket < 0 || socket >= len(s.sockets) {
		return fmt.Errorf("core: no socket %d", socket)
	}
	if !(watts >= 0 && watts <= maxPowerLimitW) {
		return fmt.Errorf("core: socket %d power limit %g W outside [0, %g]", socket, watts, maxPowerLimitW)
	}
	cpu := socket * s.cfg.Spec.Cores
	v := uint64(0)
	if watts > 0 {
		v = uint64(watts*8) | 1<<15
	}
	return s.WriteMSR(cpu, msr.MSR_PKG_POWER_LIMIT, v)
}
