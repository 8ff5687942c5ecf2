package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hswsim/internal/eprof"
	"hswsim/internal/obs"
)

// EnergyProfile captures the virtual-time energy profiler of every
// top-level platform the requested experiments build, rooted
// "<experiment>#<n>" in construction order. Install with
// EnableEnergyProfile before RunSuite; export after.
//
// Registration mirrors SpanTrace exactly: only platforms built
// sequentially on an experiment's own goroutine register (the
// o.newSystem path). Forked sweep-point children inherit a copy of
// their parent's collector, accumulate privately, and forkMap
// merges their deltas back in point order — which is why the exported
// profile is byte-identical whether the sweep ran serially or
// forked-parallel. Platforms constructed inside parallelMap callbacks
// are unprofiled for the same reason their traces are uncaptured:
// their creation order is a race of the slot pool.
type EnergyProfile struct {
	mu      sync.Mutex
	entries []eprofEntry
	seq     map[string]int
}

type eprofEntry struct {
	exp string
	seq int
	c   *eprof.Collector
}

// activeEnergyProfile is the installed recorder (nil = disabled).
var activeEnergyProfile atomic.Pointer[EnergyProfile]

// Re-exported pprof sample-type names, so serving layers can select a
// default view without importing internal/eprof directly.
const (
	SampleTypeEnergy = eprof.SampleTypeEnergy
	SampleTypeVTime  = eprof.SampleTypeVTime
)

// EnableEnergyProfile installs a process-wide energy-profile recorder,
// replacing any previous one, and returns it.
func EnableEnergyProfile() *EnergyProfile {
	ep := &EnergyProfile{seq: map[string]int{}}
	activeEnergyProfile.Store(ep)
	return ep
}

// DisableEnergyProfile uninstalls the recorder.
func DisableEnergyProfile() {
	activeEnergyProfile.Store(nil)
}

// register allocates the experiment's next construction sequence
// number and records the collector slot; the returned root label goes
// to core.System.EnableEnergyProfile. Two calls because the collector
// cannot exist before its root label does; set closes the slot.
func (ep *EnergyProfile) register(expID string) (root string, set func(*eprof.Collector)) {
	ep.mu.Lock()
	n := ep.seq[expID]
	ep.seq[expID]++
	i := len(ep.entries)
	ep.entries = append(ep.entries, eprofEntry{exp: expID, seq: n})
	ep.mu.Unlock()
	return fmt.Sprintf("%s#%d", expID, n), func(c *eprof.Collector) {
		ep.mu.Lock()
		ep.entries[i].c = c
		ep.mu.Unlock()
	}
}

// collectors returns the captured collectors in canonical order: suite
// order of the experiment id, then per-experiment construction order
// (deterministic — each experiment's Run is one goroutine; the sort
// removes the cross-experiment race).
func (ep *EnergyProfile) collectors() []*eprof.Collector {
	ep.mu.Lock()
	entries := append([]eprofEntry(nil), ep.entries...)
	ep.mu.Unlock()
	order := map[string]int{}
	for i, d := range suite {
		order[d.ID] = i
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if order[entries[i].exp] != order[entries[j].exp] {
			return order[entries[i].exp] < order[entries[j].exp]
		}
		return entries[i].seq < entries[j].seq
	})
	out := make([]*eprof.Collector, 0, len(entries))
	for _, e := range entries {
		if e.c != nil {
			out = append(out, e.c)
		}
	}
	return out
}

// Build renders the captured collectors into one export profile.
func (ep *EnergyProfile) Build() *eprof.Profile {
	return eprof.Build(ep.collectors()...)
}

// WriteFolded exports the profile as flamegraph folded stacks.
func (ep *EnergyProfile) WriteFolded(w io.Writer) error {
	return ep.Build().WriteFolded(w)
}

// WritePprof exports the profile as gzipped pprof protobuf.
func (ep *EnergyProfile) WritePprof(w io.Writer, defaultType string) error {
	return ep.Build().WritePprof(w, defaultType)
}

// Info summarizes the captured profile for the run manifest. The
// recorded total is the exact integer invariant the folded export
// re-sums to (see eprof.Profile.TotalEnergyNJ).
func (ep *EnergyProfile) Info() obs.ProfileInfo {
	p := ep.Build()
	return obs.ProfileInfo{
		Stacks:     len(p.Lines),
		EnergyNJ:   p.TotalEnergyNJ(),
		VTimeNS:    p.TotalVTimeNS(),
		DurationNS: p.DurationNS,
	}
}

// mergeEprofDeltas folds forked sweep points' profile deltas back into
// the parent platform's collector, in point order (the caller passes
// deltas indexed by point). Called after the parallelMap barrier, on
// the experiment goroutine — the parent is no longer being forked.
func mergeEprofDeltas(parent *eprof.Collector, deltas [][]eprof.Sample) {
	for _, d := range deltas {
		if len(d) == 0 {
			continue
		}
		parent.Merge(d)
		obs.EprofMerges.Inc()
	}
}
