package sim

import (
	"fmt"
	"testing"
)

// TestEngineCancelInFlight pins the documented semantics: cancelling an
// event from inside its own callback (the entry is in flight, already
// released) is a no-op that returns false.
func TestEngineCancelInFlight(t *testing.T) {
	e := NewEngine()
	var id EventID
	var got bool
	id = e.At(10, func(Time) { got = e.Cancel(id) })
	e.Drain(0)
	if got {
		t.Fatalf("Cancel of in-flight event returned true")
	}
}

// TestEngineCancelStaleAfterRecycle guards the generation stamp: an ID
// whose entry has been dispatched and recycled into a new event must not
// cancel the new occupant.
func TestEngineCancelStaleAfterRecycle(t *testing.T) {
	e := NewEngine()
	stale := e.At(10, func(Time) {})
	e.Drain(0) // dispatches, entry returns to the pool

	ran := false
	fresh := e.At(20, func(Time) { ran = true })
	if fresh.s != stale.s {
		t.Skipf("pool did not recycle the entry (fresh %p, stale %p)", fresh.s, stale.s)
	}
	if e.Cancel(stale) {
		t.Fatalf("stale ID cancelled the recycled entry")
	}
	e.Drain(0)
	if !ran {
		t.Fatalf("recycled event did not run after stale Cancel")
	}
}

// TestEngineCancelBatchMate: an event may cancel a sibling scheduled for
// the same instant that has not run yet.
func TestEngineCancelBatchMate(t *testing.T) {
	e := NewEngine()
	ran := false
	var victim EventID
	e.At(10, func(Time) {
		if !e.Cancel(victim) {
			t.Errorf("Cancel of a pending same-instant event returned false")
		}
	})
	victim = e.At(10, func(Time) { ran = true })
	e.RunUntil(10)
	if ran {
		t.Fatalf("cancelled same-instant event still ran")
	}
}

// TestEngineEveryStopFromBatchMate: stopping a periodic series from a
// same-instant sibling suppresses the tick that has not run yet.
func TestEngineEveryStopFromBatchMate(t *testing.T) {
	e := NewEngine()
	n := 0
	stop := e.Every(10, 5, func(Time) { n++ })
	e.At(10, func(Time) { stop() })
	// The Every entry (seq 0) dispatches before the stopper (seq 1), so
	// the first tick fires; the stop then removes the re-armed timer.
	e.RunUntil(100)
	if n != 1 {
		t.Fatalf("Every fired %d times, want 1 (first tick before same-instant stop)", n)
	}

	// Now the reverse order: stopper scheduled before the series' tick is
	// due, at the exact same instant the tick would fire.
	e2 := NewEngine()
	m := 0
	var stop2 func()
	e2.At(10, func(Time) { stop2() })
	stop2 = e2.Every(10, 5, func(Time) { m++ })
	e2.RunUntil(100)
	if m != 0 {
		t.Fatalf("Every fired %d times, want 0 (stopped by an earlier same-instant event)", m)
	}
}

// TestEngineEveryStopIdempotent: stop may be called many times, from any
// context, without disturbing later tenants of the recycled entry.
func TestEngineEveryStopIdempotent(t *testing.T) {
	e := NewEngine()
	stop := e.Every(0, 10, func(Time) {})
	stop()
	stop()
	ran := false
	e.At(5, func(Time) { ran = true })
	stop() // stale: entry may have been recycled into the At above
	e.Drain(0)
	if !ran {
		t.Fatalf("stale stop disturbed a recycled entry")
	}
}

// TestEngineEveryStopFromWithinThenReuse: a series stopped from its own
// callback releases its entry for reuse without corrupting the queue.
func TestEngineEveryStopFromWithinThenReuse(t *testing.T) {
	e := NewEngine()
	n := 0
	var stop func()
	stop = e.Every(0, 10, func(Time) {
		n++
		if n == 2 {
			stop()
			stop() // double-stop from within
		}
	})
	e.RunUntil(100)
	if n != 2 {
		t.Fatalf("fired %d times, want 2", n)
	}
	// Queue must still be usable.
	hits := 0
	e.After(1, func(Time) { hits++ })
	e.Drain(0)
	if hits != 1 {
		t.Fatalf("engine unusable after in-flight stop")
	}
}

// TestEngineReentrantRunUntil: a callback may pump the engine itself
// (RunUntil from within RunUntil). The inner call dispatches in
// (at, seq) order like any other: the same-instant event already
// pending (4) runs before the one the callback just scheduled (2), and
// both before the callback resumes (3).
func TestEngineReentrantRunUntil(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func(Time) {
		order = append(order, 1)
		e.At(10, func(Time) { order = append(order, 2) })
		e.RunUntil(10) // drains every pending same-instant event
		order = append(order, 3)
	})
	e.At(10, func(Time) { order = append(order, 4) })
	e.RunUntil(20)
	want := []int{1, 4, 2, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// checkEngine verifies the heap's structural invariants: index
// bookkeeping, (at, seq) heap order, every entry marked queued and none
// pending in the past, and Pending() agreeing with the heap length.
func checkEngine(t *testing.T, e *Engine) {
	t.Helper()
	for i, s := range e.queue {
		if s.index != i {
			t.Fatalf("entry at %d has index %d", i, s.index)
		}
		if i > 0 && eventLess(s, e.queue[(i-1)/2]) {
			t.Fatalf("heap violated at %d: (%v,%d) < parent", i, s.at, s.seq)
		}
		if !s.queued {
			t.Fatalf("entry (%v,%d) is in the heap but not marked queued", s.at, s.seq)
		}
		if s.at < e.now {
			t.Fatalf("entry (%v,%d) pending in the past (now %v)", s.at, s.seq, e.now)
		}
	}
	if e.Pending() != len(e.queue) {
		t.Fatalf("Pending() = %d but the heap holds %d entries", e.Pending(), len(e.queue))
	}
}

// FuzzEngineDispatchOrder drives the engine and the reference heap
// engine (engine_ref_test.go) through one random interleaving of
// At/After/EveryID/Cancel/StopSeries/Run/Fork per seed and requires
// identical dispatch traces — including same-instant ordering
// and fork re-arm at the original (time, seq) coordinates. The heap's
// structural invariants are checked after every operation. The seed
// corpus runs under plain go test; -fuzz explores further seeds.
func FuzzEngineDispatchOrder(f *testing.F) {
	for seed := uint64(1000); seed < 1020; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runDualScript(t, NewRNG(seed))
	})
}

// runDualScript executes one randomized script against both engines in
// lockstep, comparing dispatch traces as it goes.
func runDualScript(t *testing.T, rng *RNG) {
	t.Helper()
	e := NewEngine()
	r := newRefEngine()
	var etr, rtr []string
	var ids []EventID
	var rids []refEventID
	var everies []int // indices of periodic entries (StopSeries targets)
	nextTag := 0
	// Periods drawn from a small set, with starts usually snapped to the
	// next period multiple, so independent series share instants;
	// sparse phases keep singleton series too.
	periods := []Time{5, 10, 25, 40}
	for op := 0; op < 400; op++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			tag := nextTag
			nextTag++
			at := e.Now() + Time(rng.Intn(50))
			ids = append(ids, e.At(at, func(now Time) {
				etr = append(etr, fmt.Sprintf("at%d@%d", tag, now))
			}))
			rids = append(rids, r.At(at, func(now Time) {
				rtr = append(rtr, fmt.Sprintf("at%d@%d", tag, now))
			}))
		case 3:
			tag := nextTag
			nextTag++
			d := Time(rng.Intn(50))
			ids = append(ids, e.After(d, func(now Time) {
				etr = append(etr, fmt.Sprintf("after%d@%d", tag, now))
			}))
			rids = append(rids, r.After(d, func(now Time) {
				rtr = append(rtr, fmt.Sprintf("after%d@%d", tag, now))
			}))
		case 4, 5, 6:
			tag := nextTag
			nextTag++
			period := periods[rng.Intn(len(periods))]
			var start Time
			if rng.Intn(4) > 0 {
				start = (e.Now()/period + 1) * period // aligned: shares instants
			} else {
				start = e.Now() + Time(rng.Intn(30))
			}
			everies = append(everies, len(ids))
			ids = append(ids, e.EveryID(start, period, func(now Time) {
				etr = append(etr, fmt.Sprintf("every%d@%d", tag, now))
			}))
			rids = append(rids, r.EveryID(start, period, func(now Time) {
				rtr = append(rtr, fmt.Sprintf("every%d@%d", tag, now))
			}))
		case 7:
			if len(ids) > 0 {
				i := rng.Intn(len(ids))
				got, want := e.Cancel(ids[i]), r.Cancel(rids[i])
				if got != want {
					t.Fatalf("op %d: Cancel diverged: engine %v, ref %v", op, got, want)
				}
				etr = append(etr, fmt.Sprintf("cancel=%v", got))
				rtr = append(rtr, fmt.Sprintf("cancel=%v", want))
			}
		case 8:
			if len(everies) > 0 {
				i := everies[rng.Intn(len(everies))]
				e.StopSeries(ids[i])
				r.StopSeries(rids[i])
				etr = append(etr, "stop")
				rtr = append(rtr, "stop")
			}
		case 9:
			// Fork both engines and re-arm every still-pending tracked
			// event on the children at its original coordinates.
			ne, nr := e.Fork(), r.Fork()
			var nids []EventID
			var nrids []refEventID
			var neveries []int
			for i := range ids {
				p, rp := e.IsPending(ids[i]), r.IsPending(rids[i])
				if p != rp {
					t.Fatalf("op %d: IsPending diverged at %d: engine %v, ref %v", op, i, p, rp)
				}
				if !p {
					continue
				}
				tag := i
				nids = append(nids, ne.Rearm(ids[i], func(now Time) {
					etr = append(etr, fmt.Sprintf("re%d@%d", tag, now))
				}))
				nrids = append(nrids, nr.Rearm(rids[i], func(now Time) {
					rtr = append(rtr, fmt.Sprintf("re%d@%d", tag, now))
				}))
			}
			for i, id := range nids {
				if ne.IsPending(id) && id.s.period > 0 {
					neveries = append(neveries, i)
				}
			}
			e, r = ne, nr
			ids, rids, everies = nids, nrids, neveries
			etr = append(etr, "fork")
			rtr = append(rtr, "fork")
		default:
			d := Time(rng.Intn(40))
			e.Run(d)
			r.Run(d)
			etr = append(etr, fmt.Sprintf("ran@%d", e.Now()))
			rtr = append(rtr, fmt.Sprintf("ran@%d", r.Now()))
		}
		checkEngine(t, e)
		if e.Pending() != r.Pending() {
			t.Fatalf("op %d: Pending diverged: engine %d, ref %d", op, e.Pending(), r.Pending())
		}
		if len(etr) != len(rtr) {
			t.Fatalf("op %d: trace lengths diverge: %d vs %d\nengine: %v\nref:    %v",
				op, len(etr), len(rtr), tail(etr, 12), tail(rtr, 12))
		}
		for i := range etr {
			if etr[i] != rtr[i] {
				t.Fatalf("op %d: traces diverge at %d: engine %q, ref %q", op, i, etr[i], rtr[i])
			}
		}
	}
	// Stop all periodic series, then drain what's left.
	for _, i := range everies {
		e.StopSeries(ids[i])
		r.StopSeries(rids[i])
	}
	e.Drain(10000)
	r.Drain(10000)
	if len(etr) != len(rtr) {
		t.Fatalf("final trace lengths diverge: %d vs %d", len(etr), len(rtr))
	}
	for i := range etr {
		if etr[i] != rtr[i] {
			t.Fatalf("final traces diverge at %d: engine %q, ref %q", i, etr[i], rtr[i])
		}
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// TestEngineSteadyStateAllocs: a settled periodic load must not allocate
// per tick — the point of the pooled, self-re-arming timer entries.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Every(Time(i), 10, func(Time) {})
	}
	e.Run(100) // warm the pool
	avg := testing.AllocsPerRun(100, func() {
		e.Run(100)
	})
	if avg != 0 {
		t.Fatalf("steady-state Every load allocates %.1f allocs/run, want 0", avg)
	}
}

// TestEngineOneShotChainAllocs: a self-rescheduling one-shot chain (the
// PCU grid-tick pattern) reuses its own entry and allocates nothing.
func TestEngineOneShotChainAllocs(t *testing.T) {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.At(now+10, tick) }
	e.At(0, tick)
	e.Run(100)
	avg := testing.AllocsPerRun(100, func() {
		e.Run(1000)
	})
	if avg != 0 {
		t.Fatalf("one-shot chain allocates %.1f allocs/run, want 0", avg)
	}
}
