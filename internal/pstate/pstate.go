// Package pstate tracks per-core frequency domains: the p-state the
// software requested (via cpufreq/IA32_PERF_CTL), the frequency the PCU
// has granted, and in-flight transitions with their completion times.
// On Haswell-EP a request only takes effect at the PCU's next ~500 us
// opportunity plus the regulator switching time (Section VI-A); the
// domain records both so tools can measure exactly what FTaLaT measures.
package pstate

import (
	"fmt"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// Domain is one core's frequency domain. It is a plain value: copying
// it copies every field, so a fork's copy evolves independently.
type Domain struct {
	spec *uarch.Spec

	requested uarch.MHz // software setting (TurboSettingMHz for turbo)
	granted   uarch.MHz // frequency the core currently runs at
	// pending transition
	target      uarch.MHz
	completes   sim.Time
	inFlight    bool
	requestedAt sim.Time
	grantedAt   sim.Time

	// last is the most recent completed transition; its zero value
	// (CompletedAt == 0) means none.
	last Transition
}

// Transition records one completed frequency change.
type Transition struct {
	RequestedAt sim.Time // when software asked
	GrantedAt   sim.Time // PCU opportunity that picked it up
	CompletedAt sim.Time // switching finished; new clock active
	From, To    uarch.MHz
}

// Latency is the software-visible transition latency.
func (t Transition) Latency() sim.Time { return t.CompletedAt - t.RequestedAt }

// SwitchTime is the raw regulator/PLL part of the transition.
func (t Transition) SwitchTime() sim.Time { return t.CompletedAt - t.GrantedAt }

// NewDomain builds a domain running at the minimum p-state.
func NewDomain(spec *uarch.Spec) *Domain {
	return &Domain{
		spec:      spec,
		requested: spec.BaseMHz,
		granted:   spec.MinMHz,
	}
}

// Request records a software p-state request. Values are clamped to the
// selectable range; anything above base is the turbo setting.
func (d *Domain) Request(f uarch.MHz) uarch.MHz {
	switch {
	case f < d.spec.MinMHz:
		f = d.spec.MinMHz
	case f > d.spec.BaseMHz:
		f = d.spec.TurboSettingMHz()
	}
	d.requested = f
	return f
}

// Requested returns the current software setting.
func (d *Domain) Requested() uarch.MHz { return d.requested }

// Granted returns the currently active frequency.
func (d *Domain) Granted() uarch.MHz { return d.granted }

// InFlight reports whether a transition is underway and its target.
func (d *Domain) InFlight() (uarch.MHz, bool) { return d.target, d.inFlight }

// Begin starts a transition to target at the PCU opportunity grantedAt,
// completing after switchTime. requestedAt tags the originating software
// request for latency accounting (use grantedAt for PCU-originated
// changes). A transition to the current frequency is a no-op.
func (d *Domain) Begin(requestedAt, grantedAt sim.Time, target uarch.MHz, switchTime sim.Time) bool {
	if target == d.granted && !d.inFlight {
		return false
	}
	d.target = target
	d.completes = grantedAt + switchTime
	d.inFlight = true
	d.requestedAt, d.grantedAt = requestedAt, grantedAt
	return true
}

// Complete applies the pending transition if its completion time has
// arrived, returning it and true when the frequency changed. The
// transition becomes LastTransition unless it completed at time zero,
// since a zero CompletedAt marks that no transition has completed.
func (d *Domain) Complete(now sim.Time) (Transition, bool) {
	if !d.inFlight || now < d.completes {
		return Transition{}, false
	}
	t := Transition{
		RequestedAt: d.requestedAt,
		GrantedAt:   d.grantedAt,
		CompletedAt: d.completes,
		From:        d.granted,
		To:          d.target,
	}
	if t.CompletedAt != 0 {
		d.last = t
	}
	d.granted = d.target
	d.inFlight = false
	return t, true
}

// CompletionTime returns when the in-flight transition lands.
func (d *Domain) CompletionTime() (sim.Time, bool) {
	return d.completes, d.inFlight
}

// LastTransition returns the most recent completed transition.
func (d *Domain) LastTransition() (Transition, bool) {
	return d.last, d.last.CompletedAt != 0
}

func (d *Domain) String() string {
	return fmt.Sprintf("p-state domain: requested %v, granted %v", d.requested, d.granted)
}
