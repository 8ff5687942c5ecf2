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

// Entry locations. An entry is pending while it sits in one of the
// queue structures (the active heap, the far heap, a wheel bucket, or a
// coalesced tick group); locClaimed marks it pulled into the current
// same-timestamp dispatch batch but not yet run; locNone covers both
// in-flight (its callback is running) and retired/free entries — the
// generation stamp tells those apart.
const (
	locNone    int8 = iota
	locCur          // active (at, seq) min-heap; index = heap position
	locFar          // far-future min-heap; index = heap position
	locWheel        // linked into a wheel bucket; index = global slot
	locGroup        // member of a coalesced tick group; grp = driver
	locClaimed      // claimed into the current dispatch batch
)

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
//
// The same struct doubles as the driver of a coalesced tick group
// (members != nil): the driver carries the group's occurrence time and
// the head member's seq so it sorts exactly where the head member
// would, and dispatch expands it back into its members. Drivers are
// internal — they never carry an EventID and do not count as pending.
type scheduled struct {
	at  Time
	seq uint64
	fn  Event
	// h/arg are the closure-free callback form: when h is non-nil the
	// dispatcher calls h.HandleEvent(now, arg) instead of fn(now).
	h      Handler
	arg    int
	loc    int8
	gen    uint64 // incremented each time the entry returns to the pool
	index  int    // heap position (locCur/locFar) or global wheel slot (locWheel)
	period Time   // > 0: persistent periodic timer (Every)
	// stopped marks a periodic series whose stop function ran while its
	// tick was in flight; the dispatcher retires the entry instead of
	// re-arming it.
	stopped bool

	// Wheel-bucket links (locWheel): buckets are unordered intrusive
	// doubly-linked lists, so insert and cancel are O(1).
	next, prev *scheduled

	// Coalesced tick groups: grp points a member (locGroup) at its
	// driver; members/mhead make an entry a driver — members[mhead:]
	// are the pending members in ascending seq order.
	grp     *scheduled
	members []*scheduled
	mhead   int
}

// EventID identifies a scheduled event so it can be cancelled. IDs are
// generation-stamped: once the event has dispatched (or been cancelled)
// the ID goes stale and Cancel on it is a harmless no-op, even if the
// engine has recycled the underlying entry for a new event.
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

// mstream is one group's member list being merged (by seq) into a
// same-timestamp dispatch batch.
type mstream struct {
	d *scheduled // driver whose members are being consumed
	i int        // next member index
}

// Engine is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use; simulations are single-goroutine by
// design so that identical inputs always produce identical traces.
//
// Internally the pending set is a hierarchical timing wheel (wheel.go):
// a small active heap holds the earliest entries, near-term events hash
// into fixed-width L0/L1 buckets at O(1), and only far-future one-shots
// pay a heap. Periodic series sharing an occurrence instant and period
// coalesce into shared tick groups (coalesce.go). Every structure
// preserves the exact (at, seq) dispatch order of a single global heap.
type Engine struct {
	now Time
	seq uint64
	// pendingN counts pending events (group members included, internal
	// group drivers excluded) — the Pending() inventory.
	pendingN int

	cur    eventQueue // activated entries: the globally earliest live here
	far    eventQueue // one-shots beyond the wheel horizon
	l0     [l0Size]*scheduled
	l1     [l1Size]*scheduled
	l0bits [l0Size / 64]uint64
	l1bits [l1Size / 64]uint64
	// bucketMin is a monotone lower bound on every bucket window start
	// (maxTime when both wheels are empty, 0 on a fresh engine — the
	// first nextDue tightens it). It lets the steady-state activation
	// check skip the bitmap scans entirely.
	bucketMin Time

	// free pools retired queue entries for reuse (bounded by the peak
	// number of simultaneously pending events).
	free []*scheduled
	// batch is the scratch buffer for same-timestamp dispatch in RunUntil.
	batch []*scheduled
	// streams is the claim-time scratch for merging group member lists
	// with the active heap; mpool recycles member-slice backings.
	streams []mstream
	mpool   [][]*scheduled
	// recent ring of lately armed periodic nodes — the coalescing join
	// candidates (see armPeriodic).
	recent    [4]*scheduled
	recentPos int

	// Stepped is invoked after every dispatched event; nil by default.
	// Probes (power integrators, trace writers) may hook it.
	Stepped func(now Time)
	// stats are plain counters (the engine is single-goroutine by
	// design); deltas flush to the process-wide obs registry at the end
	// of each RunUntil/Drain, keeping the per-event path atomic-free.
	stats engineStats
}

// engineStats tracks dispatch volume and timer-pool effectiveness.
// The flushed fields remember what has already been pushed to obs so a
// flush adds only the delta since the previous one.
type engineStats struct {
	dispatched, poolReuse, poolAlloc, coalesced           uint64
	flushedDispatch, flushedReuse, flushedNew, flushedCoa uint64
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
	if d := s.coalesced - s.flushedCoa; d > 0 {
		obs.SimTickCoalesced.Add(int64(d))
		s.flushedCoa = s.coalesced
	}
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pendingN }

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
	s.loc = locNone
	s.index = 0
	s.next = nil
	s.prev = nil
	s.grp = nil
	e.free = append(e.free, s)
}

// schedule allocates an entry stamped with the next tie-break sequence
// number; the caller places it (place/armPeriodic).
func (e *Engine) schedule(t Time, fn Event) *scheduled {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	s := e.alloc()
	s.at = t
	s.seq = e.seq
	s.fn = fn
	e.seq++
	return s
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn Event) EventID {
	s := e.schedule(t, fn)
	e.pendingN++
	e.place(s)
	return EventID{s: s, gen: s.gen}
}

// AtHandler is At for a Handler callback: h.HandleEvent(t, arg) runs at
// absolute virtual time t. Unlike At it allocates no closure.
func (e *Engine) AtHandler(t Time, h Handler, arg int) EventID {
	s := e.schedule(t, nil)
	s.h = h
	s.arg = arg
	e.pendingN++
	e.place(s)
	return EventID{s: s, gen: s.gen}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d Time, fn Event) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// removePending takes a pending entry out of whichever structure holds
// it. The caller releases the entry (or re-homes it).
func (e *Engine) removePending(s *scheduled) {
	switch s.loc {
	case locCur:
		e.cur.remove(s.index)
	case locFar:
		e.far.remove(s.index)
	case locWheel:
		e.unlink(s)
	case locGroup:
		e.removeMember(s.grp, s)
	}
	s.loc = locNone
	e.pendingN--
}

// Cancel removes a pending event. Cancelling an already-dispatched,
// already-cancelled, or currently-dispatching (in-flight) event — stale
// IDs included, even after the engine has recycled the entry — is a
// no-op and returns false.
func (e *Engine) Cancel(id EventID) bool {
	s := id.s
	if s == nil || s.gen != id.gen {
		return false
	}
	switch s.loc {
	case locCur, locFar, locWheel, locGroup:
		e.removePending(s)
		e.release(s)
		return true
	case locClaimed:
		// Pending in the current dispatch batch: retire it before it
		// fires (the dispatcher skips entries it no longer owns).
		e.release(s)
		return true
	default:
		// In flight (its own callback is running) or already done.
		return false
	}
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
	e.armPeriodic(s)
	return EventID{s: s, gen: s.gen}
}

// EveryIDHandler is EveryID for a Handler callback.
func (e *Engine) EveryIDHandler(start, period Time, h Handler, arg int) EventID {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	s := e.schedule(start, nil)
	s.h = h
	s.arg = arg
	s.period = period
	e.armPeriodic(s)
	return EventID{s: s, gen: s.gen}
}

// stopPeriodic retires a live periodic entry in any state; the caller
// has already validated the generation and period.
func (e *Engine) stopPeriodic(s *scheduled) {
	s.stopped = true
	switch s.loc {
	case locCur, locFar, locWheel, locGroup:
		e.removePending(s)
		e.release(s)
	case locClaimed:
		e.release(s)
	}
	// locNone: the tick is in flight; the dispatcher sees stopped and
	// retires the entry instead of re-arming.
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

// IsPending reports whether the event identified by id is still waiting
// in the queue. Stale IDs (dispatched, cancelled, recycled) report
// false; a periodic series reports true until stopped.
func (e *Engine) IsPending(id EventID) bool {
	s := id.s
	if s == nil || s.gen != id.gen || s.stopped {
		return false
	}
	switch s.loc {
	case locCur, locFar, locWheel, locGroup:
		return true
	}
	return false
}

// Fork returns a new engine at the same virtual time with the same
// tie-break sequence counter and an empty queue. Pending entries are
// deliberately not copied — their callbacks close over the parent's
// component graph; each owner re-creates its own entries on the child
// with Rearm, binding fresh callbacks while preserving the original
// (time, sequence) coordinates. Once every pending parent event has
// been re-armed, the child dispatches the exact same schedule the
// parent would, including ties.
func (e *Engine) Fork() *Engine {
	// Counted directly (forks are per sweep point, not per event). The
	// parent is not mutated: concurrent forks of one parent stay safe.
	obs.SimForks.Inc()
	n := &Engine{now: e.now, seq: e.seq}
	// The child will immediately re-arm one entry per pending parent
	// event; pre-size its free list and active heap in one slab each so
	// the re-arm loop allocates nothing.
	if pending := e.pendingN; pending > 0 {
		slab := make([]scheduled, pending)
		n.free = make([]*scheduled, pending)
		for i := range slab {
			n.free[i] = &slab[i]
		}
		n.cur = make(eventQueue, 0, pending)
	}
	return n
}

// releaseTree releases an entry and, for a group driver, its pending
// members — the bulk-teardown path (ResetToFork).
func (e *Engine) releaseTree(s *scheduled) {
	if s.members != nil {
		for _, m := range s.members[s.mhead:] {
			e.release(m)
		}
		e.releaseDriver(s)
		return
	}
	e.release(s)
}

// ResetToFork empties a recycled engine and aligns its clock and
// tie-break counter with parent — the allocation-free equivalent of
// parent.Fork() for a child engine being reused from a free list.
// Retired queue entries go back to the entry pool, so the subsequent
// re-arm loop draws from it instead of allocating.
func (e *Engine) ResetToFork(parent *Engine) {
	obs.SimForks.Inc()
	for len(e.cur) > 0 {
		e.releaseTree(e.cur.pop())
	}
	for len(e.far) > 0 {
		e.releaseTree(e.far.pop())
	}
	e.drainWheel(func(s *scheduled) { e.releaseTree(s) })
	for i := range e.recent {
		e.recent[i] = nil
	}
	e.recentPos = 0
	e.pendingN = 0
	e.now = parent.now
	e.seq = parent.seq
	e.Stepped = nil
}

// rearm builds the child-side twin of a pending parent entry.
func (e *Engine) rearm(id EventID) *scheduled {
	s := id.s
	if s == nil || s.gen != id.gen || s.stopped {
		panic("sim: Rearm of an event that is not pending")
	}
	switch s.loc {
	case locCur, locFar, locWheel, locGroup:
	default:
		panic("sim: Rearm of an event that is not pending")
	}
	n := e.alloc()
	n.at = s.at
	n.seq = s.seq
	n.period = s.period
	return n
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
	if n.period > 0 {
		e.armPeriodic(n)
	} else {
		e.pendingN++
		e.place(n)
	}
	return EventID{s: n, gen: n.gen}
}

// RearmHandler is Rearm for a Handler callback: it re-creates the
// pending parent event with a closure-free child-bound callback.
func (e *Engine) RearmHandler(id EventID, h Handler, arg int) EventID {
	n := e.rearm(id)
	n.h = h
	n.arg = arg
	if n.period > 0 {
		e.armPeriodic(n)
	} else {
		e.pendingN++
		e.place(n)
	}
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
	e.armPeriodic(s)
	gen := s.gen
	return func() {
		if s.gen != gen || s.stopped {
			return // series already retired (or entry recycled)
		}
		e.stopPeriodic(s)
	}
}

// dispatch runs one entry claimed from the queue, re-arming periodic
// timers and recycling everything else. The caller has set loc to
// locNone (in flight) and decremented pendingN.
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
			e.armPeriodic(s)
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
	if e.Stepped != nil {
		e.Stepped(e.now)
	}
}

// Step dispatches the single next event, advancing the clock to its due
// time. It reports false if the queue is empty.
func (e *Engine) Step() bool {
	at, ok := e.nextDue()
	if !ok {
		return false
	}
	if at < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	top := e.cur[0]
	var s *scheduled
	if top.members != nil {
		// Group driver: peel off the head member only; the rest of the
		// group stays pending at this occurrence.
		s = top.members[top.mhead]
		top.members[top.mhead] = nil
		top.mhead++
		if top.mhead == len(top.members) {
			e.cur.pop()
			e.releaseDriver(top)
		} else {
			top.seq = top.members[top.mhead].seq
			e.cur.siftDown(0)
		}
		s.grp = nil
	} else {
		e.cur.pop()
		s = top
	}
	s.loc = locNone
	e.pendingN--
	e.now = at
	e.dispatch(s)
	return true
}

// claimBatch pulls every pending entry due exactly at t into batch, in
// (at, seq) order: heap pops merged seq-wise with the member lists of
// any group drivers due at t. nextDue has already activated everything
// due at t into the active heap.
func (e *Engine) claimBatch(t Time, batch []*scheduled) []*scheduled {
	streams := e.streams[:0]
	for {
		bestStream := -1
		var bestSeq uint64
		for i := range streams {
			st := &streams[i]
			if m := st.d.members[st.i]; bestStream < 0 || m.seq < bestSeq {
				bestSeq = m.seq
				bestStream = i
			}
		}
		if len(e.cur) > 0 && e.cur[0].at == t && (bestStream < 0 || e.cur[0].seq < bestSeq) {
			s := e.cur.pop()
			if s.members != nil {
				streams = append(streams, mstream{d: s, i: s.mhead})
				continue
			}
			s.loc = locClaimed
			e.pendingN--
			batch = append(batch, s)
			continue
		}
		if bestStream < 0 {
			break
		}
		st := &streams[bestStream]
		m := st.d.members[st.i]
		st.d.members[st.i] = nil
		st.i++
		m.grp = nil
		m.loc = locClaimed
		e.pendingN--
		batch = append(batch, m)
		if st.i == len(st.d.members) {
			e.releaseDriver(st.d)
			streams[bestStream] = streams[len(streams)-1]
			streams = streams[:len(streams)-1]
		}
	}
	e.streams = streams[:0]
	return batch
}

// RunUntil dispatches events until the clock reaches t (events due exactly
// at t are dispatched) or the queue drains, then sets the clock to t.
// Events sharing a timestamp are claimed from the queue as one batch
// before any of them runs, so a burst of same-instant events (aligned
// periodic timers, simultaneous per-core ticks) pays one drain
// instead of interleaving pops with the pushes their callbacks issue.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for {
		at, ok := e.nextDue()
		if !ok || at > t {
			break
		}
		if at < e.now {
			panic("sim: event queue corrupted (time went backwards)")
		}
		// Claim the whole same-timestamp cohort. Callbacks may schedule
		// new events at this same instant; those land in the queue with
		// higher sequence numbers and form the next batch.
		batch := e.batch
		e.batch = nil // guard against re-entrant RunUntil from a callback
		batch = e.claimBatch(at, batch[:0])
		e.now = at
		for i, s := range batch {
			batch[i] = nil
			if s.loc != locClaimed {
				continue // cancelled/stopped by an earlier batch member
			}
			s.loc = locNone
			e.dispatch(s)
		}
		e.batch = batch[:0]
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
