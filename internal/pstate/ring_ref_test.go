package pstate

import (
	"slices"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// refDomain is the reference Domain is fuzzed against: the bounded
// transition ring Domain kept before it held only the in-flight
// transition and the last completed one. The ring code is kept
// unchanged (renamed, copied eagerly by Clone, and without the
// fork-harvest and re-cap entry points, which only managed the ring's
// storage), so LastTransition's answer is checked against the full
// history it was once read from. Domain answers the same for every
// sequence the ring holds completely, that is fewer than logLimit Begin
// calls after the last completed transition; FuzzLastTransition stays
// below that.
type refDomain struct {
	spec *uarch.Spec

	requested uarch.MHz // software setting (TurboSettingMHz for turbo)
	granted   uarch.MHz // frequency the core currently runs at
	// pending transition
	target    uarch.MHz
	completes sim.Time
	inFlight  bool

	// transitions is a bounded ring of the most recent logLimit
	// transitions. Storage grows by append (domains that never change
	// frequency pay nothing, lightly-used domains hold only what they
	// logged); once len reaches logLimit the ring wraps through head,
	// so the steady logging path never allocates. Clone copies exactly
	// len entries, preserving head.
	transitions []Transition
	head        int // oldest entry once the ring is full
	logLimit    int
}

// newRefDomain builds a domain running at the minimum p-state.
func newRefDomain(spec *uarch.Spec) *refDomain {
	return &refDomain{
		spec:      spec,
		requested: spec.BaseMHz,
		granted:   spec.MinMHz,
		logLimit:  4096,
	}
}

// Clone returns an independent copy of the domain — same requested,
// granted and in-flight transition state, and its own copy of the
// transition ring (same layout — head still indexes correctly), so a
// clone's future evolution matches the original's exactly.
func (d *refDomain) Clone() *refDomain {
	c := *d
	c.transitions = slices.Clone(d.transitions)
	return &c
}

// Granted returns the currently active frequency.
func (d *refDomain) Granted() uarch.MHz { return d.granted }

// InFlight reports whether a transition is underway and its target.
func (d *refDomain) InFlight() (uarch.MHz, bool) { return d.target, d.inFlight }

// Begin starts a transition to target at the PCU opportunity grantedAt,
// completing after switchTime. requestedAt tags the originating software
// request for latency accounting (use grantedAt for PCU-originated
// changes). A transition to the current frequency is a no-op.
func (d *refDomain) Begin(requestedAt, grantedAt sim.Time, target uarch.MHz, switchTime sim.Time) bool {
	if target == d.granted && !d.inFlight {
		return false
	}
	d.target = target
	d.completes = grantedAt + switchTime
	d.inFlight = true
	d.log(Transition{
		RequestedAt: requestedAt,
		GrantedAt:   grantedAt,
		From:        d.granted,
		To:          target,
	})
	return true
}

// log appends to the transition ring, overwriting the oldest entry once
// full.
func (d *refDomain) log(t Transition) {
	if len(d.transitions) < d.logLimit {
		d.transitions = append(d.transitions, t)
		return
	}
	d.transitions[d.head] = t
	d.head++
	if d.head == d.logLimit {
		d.head = 0
	}
}

// last returns the most recently logged transition, or nil.
func (d *refDomain) last() *Transition {
	n := len(d.transitions)
	if n == 0 {
		return nil
	}
	if n < d.logLimit || d.head == 0 {
		return &d.transitions[n-1]
	}
	return &d.transitions[d.head-1]
}

// Complete applies the pending transition if its completion time has
// arrived, returning true when the frequency changed.
func (d *refDomain) Complete(now sim.Time) bool {
	if !d.inFlight || now < d.completes {
		return false
	}
	d.granted = d.target
	d.inFlight = false
	if t := d.last(); t != nil && t.CompletedAt == 0 {
		t.CompletedAt = d.completes
	}
	return true
}

// CompletionTime returns when the in-flight transition lands.
func (d *refDomain) CompletionTime() (sim.Time, bool) {
	return d.completes, d.inFlight
}

// Transitions returns the completed transition log in chronological
// order.
func (d *refDomain) Transitions() []Transition {
	n := len(d.transitions)
	out := make([]Transition, 0, n)
	start := 0
	if n == d.logLimit {
		start = d.head
	}
	for i := 0; i < n; i++ {
		t := d.transitions[(start+i)%n]
		if t.CompletedAt != 0 {
			out = append(out, t)
		}
	}
	return out
}

// LastTransition returns the most recent completed transition.
func (d *refDomain) LastTransition() (Transition, bool) {
	ts := d.Transitions()
	if len(ts) == 0 {
		return Transition{}, false
	}
	return ts[len(ts)-1], true
}
