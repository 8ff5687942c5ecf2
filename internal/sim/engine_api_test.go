package sim

import "fmt"

// The engine API below has no production caller: components use
// Every's stop closure and the Handler variants. The engine tests, the
// reference-heap fuzz target and the benchmarks drive the engine
// through these closure forms.

// Cancel removes a pending event. Cancelling an already-dispatched,
// already-cancelled, or currently-dispatching (in-flight) event — stale
// IDs included, even after the engine has recycled the entry — is a
// no-op and returns false.
func (e *Engine) Cancel(id EventID) bool {
	s := id.s
	if s == nil || s.gen != id.gen {
		return false
	}
	if !s.queued {
		// In flight (its own callback is running) or already done.
		return false
	}
	e.queue.remove(s.index)
	e.release(s)
	return true
}

// EveryID is Every returning the series' EventID instead of a stop
// closure. Periodic entries re-arm in place (same entry, same
// generation), so the ID stays valid for the whole life of the series —
// which is what lets a component keep the ID and re-create the series
// declaratively on a forked engine (Rearm). StopSeries stops it.
func (e *Engine) EveryID(start, period Time, fn Event) EventID {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	s := e.schedule(start, fn)
	s.period = period
	return EventID{s: s, gen: s.gen}
}

// StopSeries stops a periodic series started with EveryID. Stopping an
// already-retired series (stale ID) is a no-op.
func (e *Engine) StopSeries(id EventID) {
	s := id.s
	if s == nil || s.gen != id.gen || s.period <= 0 || s.stopped {
		return
	}
	e.stopPeriodic(s)
}

// Rearm re-creates a pending parent event on this (forked) engine with
// a child-bound callback, preserving the parent entry's due time,
// tie-break sequence number and period — the three coordinates that
// determine dispatch order. id must identify an event still pending on
// the parent; re-arming something already dispatched or cancelled
// panics, because silently dropping it would make the fork diverge.
func (e *Engine) Rearm(id EventID, fn Event) EventID {
	n := e.rearm(id)
	n.fn = fn
	return EventID{s: n, gen: n.gen}
}
