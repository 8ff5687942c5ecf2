package sim

import "fmt"

// refEngine is the reference queue implementation Engine is
// property-tested against: a plain binary min-heap engine with
// identical (at, seq) dispatch order, tie-break, cancel/stop and fork
// semantics. It is kept as an independent copy rather than sharing
// code with Engine, so a bug in one cannot hide in both — the property
// test (pool_test.go) asserts Engine reproduces its dispatch sequences
// exactly, including same-instant events and fork re-arm coordinates.
type refScheduled struct {
	at      Time
	seq     uint64
	fn      Event
	index   int // heap index; -1 once popped/cancelled
	gen     uint64
	period  Time
	stopped bool
}

type refEventID struct {
	s   *refScheduled
	gen uint64
}

type refQueue []*refScheduled

func refLess(a, b *refScheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q refQueue) siftUp(i int) {
	s := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(s, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = s
	s.index = i
}

func (q refQueue) siftDown(i int) bool {
	s := q[i]
	start := i
	n := len(q)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && refLess(q[r], q[child]) {
			child = r
		}
		if !refLess(q[child], s) {
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

type refEngine struct {
	now   Time
	queue refQueue
	seq   uint64
	free  []*refScheduled
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return len(e.queue) }

func (e *refEngine) alloc() *refScheduled {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return s
	}
	return &refScheduled{}
}

func (e *refEngine) release(s *refScheduled) {
	s.gen++
	s.fn = nil
	s.period = 0
	s.stopped = false
	s.index = -1
	e.free = append(e.free, s)
}

func (e *refEngine) push(s *refScheduled) {
	e.queue = append(e.queue, s)
	s.index = len(e.queue) - 1
	e.queue.siftUp(s.index)
}

func (e *refEngine) pop() *refScheduled {
	q := e.queue
	n := len(q) - 1
	s := q[0]
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.queue.siftDown(0)
	}
	s.index = -1
	return s
}

func (e *refEngine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	s := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = i
		q[n] = nil
		e.queue = q[:n]
		if !e.queue.siftDown(i) {
			e.queue.siftUp(i)
		}
	} else {
		q[n] = nil
		e.queue = q[:n]
	}
	s.index = -1
}

func (e *refEngine) schedule(t Time, fn Event) *refScheduled {
	if t < e.now {
		panic(fmt.Sprintf("sim: ref scheduling event at %v before now %v", t, e.now))
	}
	s := e.alloc()
	s.at = t
	s.seq = e.seq
	s.fn = fn
	e.seq++
	e.push(s)
	return s
}

func (e *refEngine) At(t Time, fn Event) refEventID {
	s := e.schedule(t, fn)
	return refEventID{s: s, gen: s.gen}
}

func (e *refEngine) After(d Time, fn Event) refEventID {
	return e.At(e.now+d, fn)
}

func (e *refEngine) Cancel(id refEventID) bool {
	s := id.s
	if s == nil || s.gen != id.gen {
		return false
	}
	if s.index < 0 {
		return false
	}
	e.remove(s.index)
	e.release(s)
	return true
}

func (e *refEngine) EveryID(start, period Time, fn Event) refEventID {
	s := e.schedule(start, fn)
	s.period = period
	return refEventID{s: s, gen: s.gen}
}

func (e *refEngine) StopSeries(id refEventID) {
	s := id.s
	if s == nil || s.gen != id.gen || s.period <= 0 || s.stopped {
		return
	}
	s.stopped = true
	if s.index >= 0 {
		e.remove(s.index)
		e.release(s)
	}
}

func (e *refEngine) IsPending(id refEventID) bool {
	s := id.s
	return s != nil && s.gen == id.gen && s.index >= 0 && !s.stopped
}

func (e *refEngine) Fork() *refEngine {
	return &refEngine{now: e.now, seq: e.seq}
}

func (e *refEngine) Rearm(id refEventID, fn Event) refEventID {
	s := id.s
	if s == nil || s.gen != id.gen || s.index < 0 || s.stopped {
		panic("sim: ref Rearm of an event that is not pending")
	}
	n := e.alloc()
	n.at = s.at
	n.seq = s.seq
	n.fn = fn
	n.period = s.period
	e.push(n)
	return refEventID{s: n, gen: n.gen}
}

func (e *refEngine) dispatch(s *refScheduled) {
	s.index = -1
	if s.period > 0 {
		if !s.stopped {
			s.fn(e.now)
		}
		if s.stopped {
			e.release(s)
		} else {
			s.at = e.now + s.period
			s.seq = e.seq
			e.seq++
			e.push(s)
		}
	} else {
		fn := s.fn
		e.release(s)
		fn(e.now)
	}
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := e.pop()
	e.now = s.at
	e.dispatch(s)
	return true
}

func (e *refEngine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ref RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	e.now = t
}

func (e *refEngine) Run(d Time) { e.RunUntil(e.now + d) }

func (e *refEngine) Drain(limit int) int {
	n := 0
	for (limit <= 0 || n < limit) && e.Step() {
		n++
	}
	return n
}
