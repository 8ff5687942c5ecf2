package core

import (
	"fmt"
	"sort"
	"strings"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// residency accumulates per-core time in each frequency bin and each
// c-state — the simulator's equivalent of the kernel's cpufreq-stats
// and cpuidle sysfs accounting, and the raw material for duty-cycle
// analysis of the PCU's behaviour. The p-state bins live in the
// socket's residSlab (one contiguous allocation per socket, subsliced
// per core) and are copied eagerly at fork time, so crediting is a
// plain indexed accumulate with no ownership barrier.
type residency struct {
	pstate []sim.Time // socket residSlab subslice, indexed by (MHz - min) / step
	cstate [4]sim.Time
	// since is the integration instant up to which the bins are
	// credited (see Core.creditResidency).
	since sim.Time
}

// residencyBins is the number of p-state bins per core.
func residencyBins(spec *uarch.Spec) int {
	return int((spec.MaxTurboMHz()-spec.MinMHz)/spec.PStateStep) + 1
}

// creditResidency credits the time integrated since the last credit to
// the bins of the core's present clock and c-state. Residency is
// credited lazily, not per segment: it runs before every change of the
// granted clock (onComplete) or the c-state (assign, SleepCore), and
// before every read of the bins (CoreResidency, ResetResidency). The
// bins hold integer nanoseconds, so one credit of a sum equals the sum
// of per-segment credits exactly.
func (c *Core) creditResidency() {
	now := c.sk.sys.lastIntegrate
	c.resid.add(c.sk.Spec, c.dom.Granted(), c.cstateNow, now-c.resid.since)
	c.resid.since = now
}

func (r *residency) add(spec *uarch.Spec, f uarch.MHz, cs cstate.State, dt sim.Time) {
	if cs == cstate.C0 {
		idx := int((f - spec.MinMHz) / spec.PStateStep)
		if idx >= 0 && idx < len(r.pstate) {
			r.pstate[idx] += dt
		}
	}
	switch cs {
	case cstate.C0:
		r.cstate[0] += dt
	case cstate.C1:
		r.cstate[1] += dt
	case cstate.C3:
		r.cstate[2] += dt
	case cstate.C6:
		r.cstate[3] += dt
	}
}

// Residency is a copyable report of where a core spent its time.
type Residency struct {
	PState map[uarch.MHz]sim.Time
	CState map[cstate.State]sim.Time
}

// Total returns the accounted time.
func (r Residency) Total() sim.Time {
	t := sim.Time(0)
	for _, d := range r.CState {
		t += d
	}
	return t
}

// C0Frac returns the running share.
func (r Residency) C0Frac() float64 {
	tot := r.Total()
	if tot == 0 {
		return 0
	}
	return r.CState[cstate.C0].Seconds() / tot.Seconds()
}

// DominantPState returns the frequency bin with the most running time.
func (r Residency) DominantPState() uarch.MHz {
	var best uarch.MHz
	var bestT sim.Time
	for f, d := range r.PState {
		if d > bestT || (d == bestT && f > best) {
			best, bestT = f, d
		}
	}
	return best
}

// String renders the non-zero bins, highest frequency first.
func (r Residency) String() string {
	tot := r.Total()
	if tot == 0 {
		return "no residency recorded"
	}
	var freqs []uarch.MHz
	for f, d := range r.PState {
		if d > 0 {
			freqs = append(freqs, f)
		}
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	var b strings.Builder
	for _, f := range freqs {
		fmt.Fprintf(&b, "%v: %5.1f%%  ", f, 100*r.PState[f].Seconds()/tot.Seconds())
	}
	for _, cs := range []cstate.State{cstate.C0, cstate.C1, cstate.C3, cstate.C6} {
		if d := r.CState[cs]; d > 0 {
			fmt.Fprintf(&b, "%v: %5.1f%%  ", cs, 100*d.Seconds()/tot.Seconds())
		}
	}
	return strings.TrimSpace(b.String())
}

// CoreResidency returns the accumulated residency of a CPU.
func (s *System) CoreResidency(cpu int) Residency {
	c := s.coreOf(cpu)
	out := Residency{
		PState: map[uarch.MHz]sim.Time{},
		CState: map[cstate.State]sim.Time{},
	}
	if c == nil {
		return out
	}
	s.integrateTo(s.Engine.Now())
	c.creditResidency()
	spec := s.cfg.Spec
	for i, d := range c.resid.pstate {
		if d > 0 {
			out.PState[spec.MinMHz+uarch.MHz(i)*spec.PStateStep] = d
		}
	}
	states := []cstate.State{cstate.C0, cstate.C1, cstate.C3, cstate.C6}
	for i, st := range states {
		if d := c.resid.cstate[i]; d > 0 {
			out.CState[st] = d
		}
	}
	return out
}

// ResetResidency clears a CPU's accounting (measurement windows). The
// bins are zeroed in place — the backing stays in the socket slab.
func (s *System) ResetResidency(cpu int) {
	if c := s.coreOf(cpu); c != nil {
		s.integrateTo(s.Engine.Now())
		for i := range c.resid.pstate {
			c.resid.pstate[i] = 0
		}
		c.resid.cstate = [4]sim.Time{}
		c.resid.since = s.lastIntegrate
	}
}
