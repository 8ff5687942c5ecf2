// Package slots is the process-wide bounded compute scheduler: a
// semaphore over "compute slots", one per GOMAXPROCS. Every concurrency
// level in the process shares one pool — the experiment suite holds one
// slot per in-flight experiment, and Map's helpers each hold one while
// they help fan out sweep points or fleet node steps — so the machine
// stays saturated without oversubscription regardless of how the levels
// interleave.
//
// Deadlock freedom: callers that fan work out never block their own
// goroutine on a slot. Map's caller always works through items on
// whatever slot it already holds (the suite-level one, when called from
// inside an experiment), and only extra helpers wait for free slots
// (AcquireOr, which gives up as soon as the work drains), so no cycle
// of waiters can form.
//
// Every acquisition is reported to obs (count, busy gauge, and — when
// the pool was full — the wall time spent waiting), which is how a run
// report shows whether the machine was slot-starved. The fast path pays
// two atomic adds; only a contended acquire reads the wall clock.
package slots

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hswsim/internal/obs"
)

// Pool is a bounded set of compute slots.
type Pool struct {
	c chan struct{}
}

// New builds a pool with n slots (minimum 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{c: make(chan struct{}, n)}
}

// def is the shared process-wide pool, sized to GOMAXPROCS.
var def = func() *Pool {
	p := New(runtime.GOMAXPROCS(0))
	obs.SchedSlots.Set(int64(p.Cap()))
	return p
}()

// Default returns the pool every experiment and fleet driver in this
// process shares.
func Default() *Pool { return def }

// Cap returns the pool capacity.
func (p *Pool) Cap() int { return cap(p.c) }

// Acquire blocks until a compute slot is free.
func (p *Pool) Acquire() {
	select {
	case p.c <- struct{}{}:
	default:
		start := time.Now()
		p.c <- struct{}{}
		wait := time.Since(start).Nanoseconds()
		obs.SchedSlotWaitNS.Add(wait)
		obs.SchedSlotWait.Observe(wait)
	}
	obs.SchedSlotAcquires.Inc()
	obs.SchedSlotsBusy.Add(1)
}

// AcquireOr waits for a slot unless done closes first, reporting
// whether a slot was acquired. Helpers joining a drained-any-moment fan
// out use it so a blocked helper is released the instant the work ends.
func (p *Pool) AcquireOr(done <-chan struct{}) bool {
	select {
	case p.c <- struct{}{}:
		obs.SchedSlotAcquires.Inc()
		obs.SchedSlotsBusy.Add(1)
		return true
	case <-done:
		return false
	}
}

// AcquireCtx waits for a compute slot until ctx is done, reporting
// which happened. It is the admission-control primitive: a server
// request waiting for compute capacity must stay cancellable (client
// disconnect, drain deadline), unlike the batch paths that own the
// process and can block in Acquire forever.
func (p *Pool) AcquireCtx(ctx context.Context) error {
	select {
	case p.c <- struct{}{}:
	default:
		start := time.Now()
		select {
		case p.c <- struct{}{}:
			wait := time.Since(start).Nanoseconds()
			obs.SchedSlotWaitNS.Add(wait)
			obs.SchedSlotWait.Observe(wait)
		case <-ctx.Done():
			obs.SchedSlotCancels.Inc()
			return ctx.Err()
		}
	}
	obs.SchedSlotAcquires.Inc()
	obs.SchedSlotsBusy.Add(1)
	return nil
}

// Release returns a held slot.
func (p *Pool) Release() {
	<-p.c
	obs.SchedSlotsBusy.Add(-1)
}

// Map runs fn(i) for i in [0, n) on up to workers goroutines (workers
// <= 0 selects the pool capacity). One atomic cursor hands out batch
// consecutive indices per claim: a batch of 1 balances long, uneven
// items best, and a batch of 8 spreads the cursor's cost over a
// thousand short node steps. Once fn returns false no further claim
// starts and the rest of that claim is skipped; claims other workers
// hold finish. Map returns when every started claim has.
//
// The calling goroutine always works, on whatever slot it already holds
// (the package's deadlock rule). Each helper joins only after acquiring
// a slot of its own, its occupancy recorded in harness_slot_wall_ns; a
// helper still waiting when the work drains leaves without running.
//
// fn must be safe to call concurrently for distinct indices. Results
// written to index-addressed storage make the fan-out order-independent
// and therefore deterministic.
func (p *Pool) Map(n, workers, batch int, fn func(i int) bool) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = p.Cap()
	}
	batch = max(batch, 1)
	workers = min(workers, (n+batch-1)/batch)
	if workers == 1 {
		// A lone worker needs no cursor, channel or goroutine, so it
		// allocates nothing.
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			lo := int(next.Add(int64(batch))) - batch
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+batch, n); i++ {
				if !fn(i) {
					// Move the cursor past the end: every later claim
					// comes back empty.
					next.Store(int64(n))
					return
				}
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for h := 1; h < workers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !p.AcquireOr(done) {
				return
			}
			start := time.Now()
			work()
			obs.HarnessSlotWall.Observe(time.Since(start).Nanoseconds())
			p.Release()
		}()
	}
	work()
	close(done)
	wg.Wait()
}

// ErrSaturated reports that an admission queue was already holding its
// maximum number of waiters — the caller should shed the work (an HTTP
// server maps it to 429) rather than let the backlog grow without
// bound.
var ErrSaturated = errors.New("slots: admission queue saturated")

// Queue is a bounded admission gate in front of a Pool: at most depth
// callers may be waiting for a slot at any moment; any further Acquire
// fails fast with ErrSaturated instead of joining the backlog. It is
// how a serving layer converts unbounded queueing delay (every client
// times out) into explicit load shedding (excess clients are told to
// retry, admitted ones get real service).
//
// A Queue only bounds waiters, not holders: callers that get a slot
// without waiting (pool not full) bypass the depth accounting entirely,
// so the fast path stays two channel ops.
type Queue struct {
	p     *Pool
	depth atomic.Int64
	max   int64
}

// NewQueue builds an admission queue over p admitting at most depth
// concurrent waiters (minimum 1).
func NewQueue(p *Pool, depth int) *Queue {
	if depth < 1 {
		depth = 1
	}
	return &Queue{p: p, max: int64(depth)}
}

// Pool returns the underlying pool (Release goes straight to it).
func (q *Queue) Pool() *Pool { return q.p }

// Depth returns the configured maximum number of waiters.
func (q *Queue) Depth() int { return int(q.max) }

// Acquire obtains a slot, waiting in the bounded queue if the pool is
// full. It returns nil on success (the caller must Release on the
// pool), ErrSaturated when the queue is at depth, or ctx.Err() when the
// context ends first.
func (q *Queue) Acquire(ctx context.Context) error {
	// Fast path: a free slot skips the queue accounting.
	select {
	case q.p.c <- struct{}{}:
		obs.SchedSlotAcquires.Inc()
		obs.SchedSlotsBusy.Add(1)
		return nil
	default:
	}
	if n := q.depth.Add(1); n > q.max {
		q.depth.Add(-1)
		obs.SchedQueueSheds.Inc()
		return ErrSaturated
	}
	obs.SchedQueueDepth.Add(1)
	err := q.p.AcquireCtx(ctx)
	obs.SchedQueueDepth.Add(-1)
	q.depth.Add(-1)
	return err
}
