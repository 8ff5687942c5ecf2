package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hswsim/internal/core"
	"hswsim/internal/obs"
	"hswsim/internal/trace"
)

// SpanTrace captures the virtual-time trace collector of every
// top-level platform the requested experiments build, labelled
// "<experiment>#<n>" in construction order. Install with
// EnableSpanTrace before RunSuite; export after.
//
// Only platforms built sequentially on an experiment's own goroutine
// register (the o.newSystem path). Forked sweep-point children inherit
// a clone of their parent's collector for in-simulation fidelity but
// are deliberately not registered: their creation order is a race of
// the slot pool, and the export must be byte-identical across runs.
// Variant studies that construct platforms inside parallelMap callbacks
// are untraced for the same reason.
type SpanTrace struct {
	mu      sync.Mutex
	cap     int
	entries []traceEntry
	seq     map[string]int
}

type traceEntry struct {
	exp string
	seq int
	c   *trace.Collector
}

// activeSpanTrace is the installed recorder (nil = tracing disabled).
// An atomic pointer rather than a plain global: experiments run
// concurrently and each platform construction consults it.
var activeSpanTrace atomic.Pointer[SpanTrace]

// EnableSpanTrace installs a process-wide span-trace recorder whose
// collectors hold up to capacity events and spans each, replacing any
// previous recorder, and returns it.
func EnableSpanTrace(capacity int) *SpanTrace {
	st := &SpanTrace{cap: capacity, seq: map[string]int{}}
	activeSpanTrace.Store(st)
	return st
}

// DisableSpanTrace uninstalls the recorder.
func DisableSpanTrace() {
	activeSpanTrace.Store(nil)
}

// register adds one platform's collector under the experiment id.
func (st *SpanTrace) register(expID string, c *trace.Collector) {
	st.mu.Lock()
	n := st.seq[expID]
	st.seq[expID]++
	st.entries = append(st.entries, traceEntry{exp: expID, seq: n, c: c})
	st.mu.Unlock()
}

// sections returns the captured collectors in canonical order: suite
// order of the experiment id, then per-experiment construction order.
// Per-experiment sequence numbers are deterministic (each experiment's
// Run is one goroutine); sorting removes the cross-experiment race.
func (st *SpanTrace) sections() []trace.NamedCollector {
	st.mu.Lock()
	entries := append([]traceEntry(nil), st.entries...)
	st.mu.Unlock()
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
	out := make([]trace.NamedCollector, len(entries))
	for i, e := range entries {
		out[i] = trace.NamedCollector{Name: fmt.Sprintf("%s#%d", e.exp, e.seq), C: e.c}
	}
	return out
}

// WriteChrome exports the captured traces as Chrome trace-event JSON
// (Perfetto-loadable).
func (st *SpanTrace) WriteChrome(w io.Writer) error {
	return trace.WriteChromeTrace(w, st.sections())
}

// WriteTimeline exports the captured traces as a name-sorted text
// timeline.
func (st *SpanTrace) WriteTimeline(w io.Writer) error {
	return trace.WriteTimeline(w, st.sections())
}

// Infos summarizes every captured collector for the run manifest —
// volume plus the ring-drop counts that flag a truncated export.
func (st *SpanTrace) Infos() []obs.TraceInfo {
	secs := st.sections()
	out := make([]obs.TraceInfo, len(secs))
	for i, s := range secs {
		out[i] = obs.TraceInfo{
			Label:     s.Name,
			Spans:     s.C.SpanCount(),
			OpenSpans: s.C.OpenCount(),
			SpanDrops: int64(s.C.SpanDrops()),
		}
	}
	return out
}

// newSystem builds a platform and, when a span trace is being captured
// for this experiment, enables its collector and registers it. Every
// sequential (experiment-goroutine) construction site in this package
// goes through here; parallelMap callbacks use core.NewSystem directly
// (see SpanTrace).
func (o Options) newSystem(cfg core.Config) (*core.System, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if o.liveID != "" {
		if st := activeSpanTrace.Load(); st != nil {
			st.register(o.liveID, sys.EnableTrace(st.cap))
		}
		if ep := activeEnergyProfile.Load(); ep != nil {
			root, set := ep.register(o.liveID)
			set(sys.EnableEnergyProfile(root))
		}
	}
	return sys, nil
}

// harnessSpans is the installed wall-clock harness recorder (nil =
// disabled). Harness spans measure the measurement infrastructure —
// experiment wall time, sweep-point wall time, scheduler-slot
// occupancy — and surface only in the out-of-band run report.
var harnessSpans atomic.Pointer[trace.WallCollector]

// EnableHarnessSpans installs a process-wide wall-clock harness span
// recorder and returns it.
func EnableHarnessSpans(capacity int) *trace.WallCollector {
	c := trace.NewWallCollector(capacity)
	harnessSpans.Store(c)
	return c
}

// DisableHarnessSpans uninstalls the recorder.
func DisableHarnessSpans() {
	harnessSpans.Store(nil)
}

// wallSpan opens a harness span and returns its completion closure,
// or nil when recording is disabled (callers guard the end call, so a
// disabled recorder costs one atomic load).
func wallSpan(cat, name string) func() {
	hc := harnessSpans.Load()
	if hc == nil {
		return nil
	}
	obs.HarnessSpans.Inc()
	return hc.Begin(cat, name)
}
