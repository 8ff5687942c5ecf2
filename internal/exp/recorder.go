package exp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hswsim/internal/core"
	"hswsim/internal/eprof"
	"hswsim/internal/obs"
	"hswsim/internal/trace"
)

// Recorder captures the virtual-time span trace, the energy profile or
// both of every top-level platform the requested experiments build,
// labelled "<experiment>#<n>" in construction order. Install with
// EnableRecorder before RunSuite; export after.
//
// Only platforms built sequentially on an experiment's own goroutine
// register (the o.newSystem path), so every label is deterministic.
// Forked sweep-point children inherit a copy of their parent's
// collectors. Their trace clones are never exported, because their
// creation order is a race of the slot pool; their profile deltas
// merge back into the parent in point order (forkMap), which is why
// the exported profile is byte-identical whether the sweep ran
// serially or forked-parallel. Variant studies that construct
// platforms inside parallelMap callbacks are unrecorded for the same
// reason forked traces are unexported.
type Recorder struct {
	spans, energy bool // arm the span trace, the energy profiler

	mu      sync.Mutex
	entries []recEntry
	seq     map[string]int
}

// recEntry is one registered platform.
type recEntry struct {
	exp    string
	seq    int    // construction index within the experiment
	label  string // "<exp>#<seq>"
	spans  *trace.Collector
	energy *eprof.Collector
}

// activeRecorder is the installed recorder (nil = recording disabled).
// An atomic pointer rather than a plain global: experiments run
// concurrently and each platform construction consults it.
var activeRecorder atomic.Pointer[Recorder]

// traceCapacity is how many completed spans each recorded platform's
// trace collector keeps; it bounds a span-trace export's size.
const traceCapacity = 1 << 14

// Re-exported pprof sample-type names, so serving layers can select a
// default view without importing internal/eprof directly.
const (
	SampleTypeEnergy = eprof.SampleTypeEnergy
	SampleTypeVTime  = eprof.SampleTypeVTime
)

// EnableRecorder installs a process-wide recorder that captures the
// span trace, the energy profile or both, replacing any previous one,
// and returns it.
func EnableRecorder(spans, energy bool) *Recorder {
	r := &Recorder{spans: spans, energy: energy, seq: map[string]int{}}
	activeRecorder.Store(r)
	return r
}

// DisableRecorder uninstalls the recorder.
func DisableRecorder() { activeRecorder.Store(nil) }

// EnableEnergyProfile installs a recorder that captures the energy
// profile alone.
func EnableEnergyProfile() *Recorder { return EnableRecorder(false, true) }

// DisableEnergyProfile uninstalls the recorder.
func DisableEnergyProfile() { DisableRecorder() }

// register arms the recorded collectors on a platform experiment expID
// just built and files them under the experiment's next label.
func (r *Recorder) register(expID string, sys *core.System) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := recEntry{exp: expID, seq: r.seq[expID]}
	r.seq[expID]++
	e.label = fmt.Sprintf("%s#%d", expID, e.seq)
	if r.spans {
		e.spans = sys.EnableTrace(traceCapacity)
	}
	if r.energy {
		e.energy = sys.EnableEnergyProfile(e.label)
	}
	r.entries = append(r.entries, e)
}

// sorted returns the registered platforms in canonical order: suite
// order of the experiment, then construction order within it. Each
// experiment's Run is one goroutine, so its sequence numbers are
// deterministic; the sort removes the race between experiments.
func (r *Recorder) sorted() []recEntry {
	r.mu.Lock()
	es := append([]recEntry(nil), r.entries...)
	r.mu.Unlock()
	order := map[string]int{}
	for i, d := range suite {
		order[d.ID] = i
	}
	sort.Slice(es, func(i, j int) bool {
		if oi, oj := order[es[i].exp], order[es[j].exp]; oi != oj {
			return oi < oj
		}
		return es[i].seq < es[j].seq
	})
	return es
}

// sections returns the captured span traces in canonical order.
func (r *Recorder) sections() []trace.NamedCollector {
	var out []trace.NamedCollector
	for _, e := range r.sorted() {
		if e.spans != nil {
			out = append(out, trace.NamedCollector{Name: e.label, C: e.spans})
		}
	}
	return out
}

// WriteChrome exports the captured traces as Chrome trace-event JSON
// (Perfetto-loadable).
func (r *Recorder) WriteChrome(w io.Writer) error {
	return trace.WriteChromeTrace(w, r.sections())
}

// WriteTimeline exports the captured traces as a name-sorted text
// timeline.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	return trace.WriteTimeline(w, r.sections())
}

// Infos summarizes every captured trace collector for the run manifest:
// volume plus the ring-drop counts that flag a truncated export.
func (r *Recorder) Infos() []obs.TraceInfo {
	secs := r.sections()
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

// Build renders the captured energy profilers into one export profile.
func (r *Recorder) Build() *eprof.Profile {
	var cs []*eprof.Collector
	for _, e := range r.sorted() {
		cs = append(cs, e.energy) // nil when unprofiled; Build skips it
	}
	return eprof.Build(cs...)
}

// WriteFolded exports the profile as flamegraph folded stacks.
func (r *Recorder) WriteFolded(w io.Writer) error {
	return r.Build().WriteFolded(w)
}

// WritePprof exports the profile as gzipped pprof protobuf.
func (r *Recorder) WritePprof(w io.Writer, defaultType string) error {
	return r.Build().WritePprof(w, defaultType)
}

// Info summarizes the captured profile for the run manifest. The
// recorded total is the exact integer invariant the folded export
// re-sums to (see eprof.Profile.TotalEnergyNJ).
func (r *Recorder) Info() obs.ProfileInfo {
	p := r.Build()
	return obs.ProfileInfo{
		Stacks:     len(p.Lines),
		EnergyNJ:   p.TotalEnergyNJ(),
		VTimeNS:    p.TotalVTimeNS(),
		DurationNS: p.DurationNS,
	}
}

// newSystem builds a platform and, when a recorder is installed and
// the options name the experiment running, registers it. Every
// sequential (experiment-goroutine) construction site in this package
// goes through here; parallelMap callbacks use core.NewSystem directly
// (see Recorder).
func (o Options) newSystem(cfg core.Config) (*core.System, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if r := activeRecorder.Load(); r != nil && o.liveID != "" {
		r.register(o.liveID, sys)
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
