package exp

import (
	"context"
	"errors"
	"runtime/pprof"
	"strconv"
	"time"

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
// The fan-out is sched.Map with a batch of one: sweep points are few
// and uneven, so each claim takes a single point. The caller drains
// points on whatever slot it already holds (inside RunSuite, the
// experiment's suite-level slot), and helpers join on slots of their
// own, which lets point-level work interleave with whole experiments
// without oversubscribing the machine.
//
// Each item runs under the CPU profiler label point=<index>, added to
// the exp=<id> label of the experiment o belongs to (see RunLive), so
// `go tool pprof -tagfocus` splits a profile by experiment and by sweep
// point. Helper goroutines inherit the caller's exp label.
func parallelMap[T, R any](o Options, items []T, fn func(T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	errs := make([]error, len(items))
	labels := o.profLabels()
	sched.Map(len(items), parallelWorkers, 1, func(i int) bool {
		obs.ExpPoints.Inc()
		start := time.Now()
		pprof.Do(labels, pprof.Labels("point", strconv.Itoa(i)), func(context.Context) {
			results[i], errs[i] = fn(items[i])
		})
		obs.HarnessPointWall.Observe(time.Since(start).Nanoseconds())
		return errs[i] == nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}
