package exp

import (
	"hswsim/internal/core"
	"hswsim/internal/eprof"
	"hswsim/internal/obs"
)

// forkMap runs fn over items on the shared slot pool, handing each item
// an independent fork of the warmed parent platform. A fork carries the
// parent's exact state — virtual clock, event tie-break order, RNG
// stream positions, component state — so each sweep point behaves
// exactly as if it alone had continued the parent, regardless of how
// many points run concurrently. Results come back in item order, which
// keeps rendered output byte-identical to a serial sweep.
//
// The parent must be quiescent (only platform timers pending) and is
// never mutated beyond its lock-protected child free list: System.Fork
// is otherwise read-only on an integrated platform, so any number of
// points may fork it at once.
//
// Each point's child is Released back to the parent's free list once fn
// returns, so a sweep recycles a handful of children across all its
// points instead of allocating one platform per point. fn must
// therefore not retain the *System (or pointers into it) past its
// return — every point callback in this package extracts plain result
// values, which is what makes the release safe. o labels the points
// for the CPU profiler (see parallelMap).
func forkMap[T, R any](o Options, parent *core.System, items []T, fn func(*core.System, T) (R, error)) ([]R, error) {
	pep := parent.EnergyProfile()
	// deltas[i] is point i's energy-profile accumulation, extracted
	// from the child's copied collector before release and merged
	// back after the barrier — in point order, so the parent profile is
	// byte-identical to a serial sweep no matter how the points
	// interleaved. Points are dispatched by index so each knows its
	// merge slot.
	var deltas [][]eprof.Sample
	if pep != nil {
		deltas = make([][]eprof.Sample, len(items))
	}
	idxs := make([]int, len(items))
	for i := range idxs {
		idxs[i] = i
	}
	rs, err := parallelMap(o, idxs, func(i int) (R, error) {
		sys, ferr := parent.Fork()
		if ferr != nil {
			var zero R
			return zero, ferr
		}
		r, ferr := fn(sys, items[i])
		if pep != nil {
			deltas[i] = sys.EnergyProfile().DeltaFrom(pep)
		}
		sys.Release()
		return r, ferr
	})
	if err == nil {
		// After the barrier, on the experiment goroutine: the parent is
		// no longer being forked.
		for _, d := range deltas {
			if len(d) > 0 {
				pep.Merge(d)
				obs.EprofMerges.Inc()
			}
		}
	}
	return rs, err
}
