package sim

import (
	"fmt"

	"hswsim/internal/obs"
)

// Event is a closure scheduled to run at a point in virtual time. The engine
// passes the current virtual time (the event's due time) to the callback.
type Event func(now Time)

// Handler is the closure-free alternative to Event: the engine calls
// HandleEvent with the due time and the integer argument given at
// scheduling time. Components that schedule many events per fork (one
// per core, per socket) implement Handler once and encode the target in
// arg, so re-arming a schedule on a forked engine allocates no closures
// — an interface value holding a pointer is free to construct.
type Handler interface {
	HandleEvent(now Time, arg int)
}

// scheduled is an entry in the event queue. seq breaks ties between events
// scheduled for the same instant so dispatch order is insertion order,
// keeping runs deterministic.
//
// Entries are pooled on the engine's free list: once dispatched or
// cancelled they are recycled into later schedule calls, so the
// steady-state dispatch loop allocates nothing. gen is bumped on every
// recycle so a stale EventID can never touch an entry's next life.
// Periodic timers (Every) are intrusive: period > 0 marks an entry that
// re-arms itself after each dispatch instead of allocating a successor.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
	// h/arg are the closure-free callback form: when h is non-nil the
	// dispatcher calls h.HandleEvent(now, arg) instead of fn(now).
	h   Handler
	arg int
	// queued marks an entry pending in the (at, seq) heap. An entry that
	// is not queued is either in flight (its callback is running) or
	// retired; the generation stamp tells those apart.
	queued bool
	gen    uint64 // incremented each time the entry returns to the pool
	index  int    // heap position while queued
	period Time   // > 0: persistent periodic timer (Every)
	// stopped marks a periodic series whose stop function ran while its
	// tick was in flight; the dispatcher retires the entry instead of
	// re-arming it.
	stopped bool
}

// EventID identifies a scheduled event. IDs are generation-stamped:
// once the event has dispatched (or its series stopped) the ID goes
// stale, and IsPending reports false for it even after the engine has
// recycled the underlying entry for a new event.
type EventID struct {
	s   *scheduled
	gen uint64
}

// eventQueue is a binary min-heap ordered by (at, seq). The sift
// routines are hand-rolled (rather than container/heap) to keep the
// per-event dispatch cost free of interface calls on the hot path.
type eventQueue []*scheduled

func eventLess(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q eventQueue) siftUp(i int) {
	s := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = s
	s.index = i
}

// siftDown moves q[i] towards the leaves; it reports whether the entry
// moved (mirroring container/heap's down, which remove needs).
func (q eventQueue) siftDown(i int) bool {
	s := q[i]
	start := i
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(q[r], q[child]) {
			child = r
		}
		if !eventLess(q[child], s) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = s
	s.index = i
	return i > start
}

// push appends s and restores heap order.
func (q *eventQueue) push(s *scheduled) {
	*q = append(*q, s)
	s.index = len(*q) - 1
	q.siftUp(s.index)
}

// pop removes and returns the earliest entry.
func (q *eventQueue) pop() *scheduled {
	old := *q
	n := len(old) - 1
	s := old[0]
	old[0] = old[n]
	old[0].index = 0
	old[n] = nil
	*q = old[:n]
	if n > 0 {
		(*q).siftDown(0)
	}
	return s
}

// remove deletes the entry at heap index i.
func (q *eventQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	if i != n {
		old[i] = old[n]
		old[i].index = i
		old[n] = nil
		*q = old[:n]
		if !(*q).siftDown(i) {
			(*q).siftUp(i)
		}
	} else {
		old[n] = nil
		*q = old[:n]
	}
}

// Engine is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use; simulations are single-goroutine by
// design so that identical inputs always produce identical traces.
//
// The pending set is one binary min-heap ordered by (at, seq). A
// simulated node holds a few dozen pending events at most, so the heap
// stays shallow and its O(log n) sift is a handful of compares.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue

	// free pools retired queue entries for reuse (bounded by the peak
	// number of simultaneously pending events).
	free []*scheduled
	// stats are plain counters (the engine is single-goroutine by
	// design); deltas flush to the process-wide obs registry at the end
	// of each RunUntil/Drain, keeping the per-event path atomic-free.
	stats engineStats
}

// engineStats tracks dispatch volume and timer-pool effectiveness.
// The flushed fields remember what has already been pushed to obs so a
// flush adds only the delta since the previous one.
type engineStats struct {
	dispatched, poolReuse, poolAlloc          uint64
	flushedDispatch, flushedReuse, flushedNew uint64
}

// flushStats pushes counter deltas to the obs registry: a handful of
// uncontended atomic adds per Run/Drain, zero per event.
func (e *Engine) flushStats() {
	s := &e.stats
	if d := s.dispatched - s.flushedDispatch; d > 0 {
		obs.SimEventsDispatched.Add(int64(d))
		s.flushedDispatch = s.dispatched
	}
	if d := s.poolReuse - s.flushedReuse; d > 0 {
		obs.SimTimerPoolReuse.Add(int64(d))
		s.flushedReuse = s.poolReuse
	}
	if d := s.poolAlloc - s.flushedNew; d > 0 {
		obs.SimTimerPoolAlloc.Add(int64(d))
		s.flushedNew = s.poolAlloc
	}
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// alloc takes an entry from the pool, or makes one.
func (e *Engine) alloc() *scheduled {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.stats.poolReuse++
		return s
	}
	e.stats.poolAlloc++
	return &scheduled{}
}

// release retires an entry to the pool, invalidating outstanding IDs.
func (e *Engine) release(s *scheduled) {
	s.gen++
	s.fn = nil
	s.h = nil
	s.arg = 0
	s.period = 0
	s.stopped = false
	s.queued = false
	s.index = 0
	e.free = append(e.free, s)
}

// place queues a pending entry whose at/seq the caller has set.
func (e *Engine) place(s *scheduled) {
	s.queued = true
	e.queue.push(s)
}

// schedule queues an entry at t stamped with the next tie-break
// sequence number; the caller sets h/arg or period where it needs them.
func (e *Engine) schedule(t Time, fn Event) *scheduled {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.alloc()
	s.at = t
	s.seq = e.seq
	s.fn = fn
	e.seq++
	e.place(s)
	return s
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn Event) EventID {
	s := e.schedule(t, fn)
	return EventID{s: s, gen: s.gen}
}

// AtHandler is At for a Handler callback: h.HandleEvent(t, arg) runs at
// absolute virtual time t. Unlike At it allocates no closure.
func (e *Engine) AtHandler(t Time, h Handler, arg int) EventID {
	s := e.schedule(t, nil)
	s.h = h
	s.arg = arg
	return EventID{s: s, gen: s.gen}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn Event) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// EveryIDHandler is Every for a Handler callback, returning the
// series' EventID instead of a stop closure. Periodic entries re-arm in
// place (same entry, same generation), so the ID stays valid for the
// whole life of the series — which is what lets a component keep the ID
// and re-create the series on a forked engine (RearmHandler).
func (e *Engine) EveryIDHandler(start, period Time, h Handler, arg int) EventID {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	s := e.schedule(start, nil)
	s.h = h
	s.arg = arg
	s.period = period
	return EventID{s: s, gen: s.gen}
}

// stopPeriodic retires a live periodic entry in any state; the caller
// has already validated the generation and period.
func (e *Engine) stopPeriodic(s *scheduled) {
	s.stopped = true
	if s.queued {
		e.queue.remove(s.index)
		e.release(s)
	}
	// Otherwise the tick is in flight; the dispatcher sees stopped and
	// retires the entry instead of re-arming.
}

// IsPending reports whether the event identified by id is still waiting
// in the queue. Stale IDs (dispatched, cancelled, recycled) report
// false; a periodic series reports true until stopped.
func (e *Engine) IsPending(id EventID) bool {
	s := id.s
	return s != nil && s.gen == id.gen && s.queued
}

// Fork returns a new engine at the same virtual time with the same
// tie-break sequence counter and an empty queue. Pending entries are
// deliberately not copied — their callbacks close over the parent's
// component graph; each owner re-creates its own entries on the child
// with RearmHandler, binding fresh callbacks while preserving the original
// (time, sequence) coordinates. Once every pending parent event has
// been re-armed, the child dispatches the exact same schedule the
// parent would, including ties.
func (e *Engine) Fork() *Engine {
	// Counted directly (forks are per sweep point, not per event). The
	// parent is not mutated: concurrent forks of one parent stay safe.
	obs.SimForks.Inc()
	n := &Engine{now: e.now, seq: e.seq}
	// The child will immediately re-arm one entry per pending parent
	// event; pre-size its free list and heap in one slab each so the
	// re-arm loop allocates nothing.
	if pending := len(e.queue); pending > 0 {
		slab := make([]scheduled, pending)
		n.free = make([]*scheduled, pending)
		for i := range slab {
			n.free[i] = &slab[i]
		}
		n.queue = make(eventQueue, 0, pending)
	}
	return n
}

// ResetToFork empties a recycled engine and aligns its clock and
// tie-break counter with parent — the allocation-free equivalent of
// parent.Fork() for a child engine being reused from a free list.
// Retired queue entries go back to the entry pool, so the subsequent
// re-arm loop draws from it instead of allocating.
func (e *Engine) ResetToFork(parent *Engine) {
	obs.SimForks.Inc()
	for i, s := range e.queue {
		e.queue[i] = nil
		e.release(s)
	}
	e.queue = e.queue[:0]
	e.now = parent.now
	e.seq = parent.seq
}

// rearm queues the child-side twin of a pending parent entry; the
// caller binds its callback.
func (e *Engine) rearm(id EventID) *scheduled {
	s := id.s
	if s == nil || s.gen != id.gen || !s.queued {
		panic("sim: Rearm of an event that is not pending")
	}
	n := e.alloc()
	n.at = s.at
	n.seq = s.seq
	n.period = s.period
	e.place(n)
	return n
}

// RearmHandler re-creates a pending parent event on this (forked)
// engine with a closure-free child-bound callback, preserving the
// parent entry's due time, tie-break sequence number and period — the
// three coordinates that determine dispatch order. id must identify an
// event still pending on the parent; re-arming something already
// dispatched or stopped panics, because silently dropping it would make
// the fork diverge.
func (e *Engine) RearmHandler(id EventID, h Handler, arg int) EventID {
	n := e.rearm(id)
	n.h = h
	n.arg = arg
	return EventID{s: n, gen: n.gen}
}

// Every schedules fn to run at start, start+period, start+2*period, ...
// until the returned stop function is called. The series is one
// persistent timer entry that re-arms itself after each tick, so a
// steady-state periodic load allocates nothing per tick. fn runs before
// the next occurrence is armed, so fn may stop the series from within;
// stopping an in-flight tick from its own callback simply prevents the
// re-arm. stop is idempotent.
func (e *Engine) Every(start, period Time, fn Event) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	s := e.schedule(start, fn)
	s.period = period
	gen := s.gen
	return func() {
		if s.gen != gen || s.stopped {
			return // series already retired (or entry recycled)
		}
		e.stopPeriodic(s)
	}
}

// dispatch runs one entry taken from the queue, re-arming periodic
// timers and recycling everything else. The caller has cleared queued
// (in flight).
func (e *Engine) dispatch(s *scheduled) {
	e.stats.dispatched++
	if s.period > 0 {
		if !s.stopped {
			if s.h != nil {
				s.h.HandleEvent(e.now, s.arg)
			} else {
				s.fn(e.now)
			}
		}
		if s.stopped {
			e.release(s)
		} else {
			// Re-arm with a fresh sequence number: the next tick ties
			// with events exactly as if it had been scheduled here.
			s.at = e.now + s.period
			s.seq = e.seq
			e.seq++
			e.place(s)
		}
	} else {
		fn, h, arg := s.fn, s.h, s.arg
		e.release(s)
		if h != nil {
			h.HandleEvent(e.now, arg)
		} else {
			fn(e.now)
		}
	}
}

// Step dispatches the single next event, advancing the clock to its due
// time. It reports false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := e.queue.pop()
	if s.at < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	s.queued = false
	e.now = s.at
	e.dispatch(s)
	return true
}

// RunUntil dispatches events one at a time in (at, seq) order until
// the clock reaches t (events due exactly at t are dispatched) or the
// queue drains, then sets the clock to t. A callback that schedules an
// event at its own instant gets a later sequence number, so the new
// event runs after every same-instant event already pending.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	e.now = t
	e.flushStats()
}

// Run dispatches events for d of virtual time from now.
func (e *Engine) Run(d Time) {
	e.RunUntil(e.now + d)
}

// Drain dispatches events until the queue is empty or limit events have
// run, returning the number dispatched. A limit <= 0 means no limit.
func (e *Engine) Drain(limit int) int {
	n := 0
	for (limit <= 0 || n < limit) && e.Step() {
		n++
	}
	e.flushStats()
	return n
}
