package exp

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"hswsim/internal/obs"
)

// parallelWorkers overrides the worker count when positive (test seam:
// 1 forces a serial run for determinism comparisons — parallelMap runs
// on the caller alone and RunSuite degrades to a sequential loop).
var parallelWorkers = 0

// parallelMap runs fn over items on the shared slot pool and returns
// results in input order. Each item builds and runs its own independent
// simulated platform, so parallelism does not affect determinism — only
// wall-clock time. Once any item fails, no further items are started
// (in-flight ones finish); all errors that did occur are returned
// joined, so callers see every failure, not just the first.
//
// The calling goroutine always participates: it drains items itself on
// whatever compute slot it already holds (inside RunSuite that is the
// experiment's suite-level slot). Helper goroutines join only after
// acquiring a slot of their own from the shared pool, which is what
// lets point-level work interleave with other whole experiments without
// oversubscribing the machine — and what makes the nesting
// deadlock-free: the caller never waits on a slot.
//
// Each item runs under the CPU profiler label point=<index>, added to
// the exp=<id> label of the experiment o belongs to (see RunLive), so
// `go tool pprof -tagfocus` splits a profile by experiment and by sweep
// point. Helper goroutines inherit the caller's exp label.
func parallelMap[T, R any](o Options, items []T, fn func(T) (R, error)) ([]R, error) {
	workers := sched.Cap()
	if parallelWorkers > 0 {
		workers = parallelWorkers
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var failed atomic.Bool
	labels := o.profLabels()
	work := func() {
		for {
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(items) {
				return
			}
			obs.ExpPoints.Inc()
			pointEnd := wallSpan("point", "")
			pprof.Do(labels, pprof.Labels("point", strconv.Itoa(i)), func(context.Context) {
				if results[i], errs[i] = fn(items[i]); errs[i] != nil {
					failed.Store(true)
				}
			})
			if pointEnd != nil {
				pointEnd()
			}
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for h := 0; h < workers-1; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !sched.AcquireOr(done) {
				// The map drained before a slot freed up; nothing left.
				return
			}
			helperEnd := wallSpan("slot", "helper")
			work()
			if helperEnd != nil {
				helperEnd()
			}
			sched.Release()
		}()
	}
	work()
	close(done)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}
