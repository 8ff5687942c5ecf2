package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"hswsim/internal/cstate"
	"hswsim/internal/obs"
	"hswsim/internal/uarch"
)

// Descriptor is one runnable experiment of the paper suite: an id the
// command line addresses it by, and a Run that writes the rendered
// table/figure to w. Run must be self-contained — every descriptor
// builds its own platform(s), so descriptors can execute concurrently.
type Descriptor struct {
	ID    string
	Title string
	// CSV: Run renders a CSV form when csv is set. The other
	// descriptors render the same text either way, so runOne and the
	// server pass them csv=false: one entry, one flight and one content
	// type per text result.
	CSV bool
	Run func(o Options, w io.Writer, csv bool) error
}

// renderable is the common surface of report tables.
type renderable interface {
	String() string
	CSV() string
}

// writeRendered writes a table in the requested format.
func writeRendered(w io.Writer, t renderable, csv bool) error {
	if csv {
		_, err := io.WriteString(w, t.CSV())
		return err
	}
	_, err := io.WriteString(w, t.String())
	return err
}

// suite is the experiment table in canonical (paper) order — the order
// a full run emits, whatever subset was requested.
var suite = []Descriptor{
	{ID: "tab1", Title: "Table I: SNB-EP vs HSW-EP microarchitecture", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		return writeRendered(w, Table1(), csv)
	}},
	{ID: "tab2", Title: "Table II: test system details", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		t, _, err := Table2(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
	{ID: "tab3", Title: "Table III: uncore frequencies, single-threaded", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t, err := Table3(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
	{ID: "tab4", Title: "Table IV: FIRESTARTER under frequency settings", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t, err := Table4(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
	{ID: "tab5", Title: "Table V: max node power and sustained frequency", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t, err := Table5(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
	{ID: "fig1", Title: "Figure 1: Haswell-EP die layouts", Run: func(o Options, w io.Writer, csv bool) error {
		_, err := io.WriteString(w, Fig1Render())
		return err
	}},
	{ID: "fig2", Title: "Figure 2: RAPL accuracy vs reference meter", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		var out strings.Builder
		if csv {
			out.WriteString("arch,workload,cores,ac_w,rapl_w\n")
		}
		for _, gen := range []uarch.Generation{uarch.SandyBridgeEP, uarch.HaswellEP} {
			r, err := Fig2(gen, o)
			if err != nil {
				return err
			}
			if !csv {
				out.WriteString(r.Render())
				continue
			}
			for _, p := range r.Points {
				fmt.Fprintf(&out, "%s,%s,%d,%.2f,%.2f\n", gen, p.Workload, p.Cores, p.ACW, p.RAPLW)
			}
		}
		_, err := io.WriteString(w, out.String())
		return err
	}},
	{ID: "fig3", Title: "Figure 3: p-state transition latencies", Run: func(o Options, w io.Writer, csv bool) error {
		r, err := Fig3(o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, r.Render())
		return err
	}},
	{ID: "fig4", Title: "Figure 4: concurrent p-state transition classes", Run: func(o Options, w io.Writer, csv bool) error {
		r, err := Fig4(o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, r.Render())
		return err
	}},
	{ID: "fig5", Title: "Figure 5: C3 wake-up latencies", Run: func(o Options, w io.Writer, csv bool) error {
		r, err := CStateLatencies(cstate.C3, o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, r.Render())
		return err
	}},
	{ID: "fig6", Title: "Figure 6: C6 wake-up latencies", Run: func(o Options, w io.Writer, csv bool) error {
		r, err := CStateLatencies(cstate.C6, o)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, r.Render())
		return err
	}},
	{ID: "fig7", Title: "Figure 7: memory bandwidth vs core frequency", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		r, err := Fig7(o)
		if err != nil {
			return err
		}
		if !csv {
			_, err = io.WriteString(w, r.Render())
			return err
		}
		var b strings.Builder
		b.WriteString("arch,level,freq_ghz,relative,abs_gbs\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%s,%s,%.3f,%.4f,%.2f\n", p.Arch, p.Level, p.FreqGHz, p.Relative, p.AbsGBs)
		}
		_, err = io.WriteString(w, b.String())
		return err
	}},
	{ID: "fig8", Title: "Figure 8: bandwidth vs cores/threads/frequency", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		r, err := Fig8(o)
		if err != nil {
			return err
		}
		if !csv {
			_, err = io.WriteString(w, r.Render())
			return err
		}
		var b strings.Builder
		b.WriteString("level,cores,threads,freq_ghz,gbs\n")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.2f\n", p.Level, p.Cores, p.Threads, p.FreqGHz, p.GBs)
		}
		_, err = io.WriteString(w, b.String())
		return err
	}},
	{ID: "extensions", Title: "Beyond the paper: power cap, idle, DVFS, NUMA, PCPS studies", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t1, err := PowerCapStudy(o)
		if err != nil {
			return err
		}
		if err := writeRendered(w, t1, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, t2, err := IdleTableStudy(o)
		if err != nil {
			return err
		}
		if err := writeRendered(w, t2, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, t3, err := DVFSDynamicStudy(o)
		if err != nil {
			return err
		}
		if err := writeRendered(w, t3, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, t4, err := NUMAStudy(o)
		if err != nil {
			return err
		}
		if err := writeRendered(w, t4, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
		_, t5, err := PCPSStudy(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t5, csv)
	}},
	{ID: "catalog", Title: "Kernel catalog characterization", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t, err := KernelCatalogStudy(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
	{ID: "ablations", Title: "Model ablations", Run: func(o Options, w io.Writer, csv bool) error {
		for _, fn := range []func(Options) (*AblationResult, error){
			AblationPstateGrid, AblationUFS, AblationRAPLMode,
			AblationEET, AblationBudget,
		} {
			r, err := fn(o)
			if err != nil {
				return err
			}
			if _, err := io.WriteString(w, r.Render()); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}},
	{ID: "fleet", Title: "Fleet-scale manufacturing variation: tail slowdown vs fleet size", CSV: true, Run: func(o Options, w io.Writer, csv bool) error {
		_, t, err := FleetVariationStudy(o)
		if err != nil {
			return err
		}
		return writeRendered(w, t, csv)
	}},
}

// Suite returns the experiment table in canonical order.
func Suite() []Descriptor { return suite }

// Lookup resolves an experiment id.
func Lookup(id string) (Descriptor, bool) {
	for _, d := range suite {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Cache stores rendered experiment outputs across process invocations.
// Implementations must key on everything that can change the output —
// the experiment id, the options, the format, and the build identity of
// the binary; internal/expcache is the on-disk implementation. A Get
// miss (or a corrupt/stale entry, which implementations must treat as a
// miss) falls back to a live run. Implementations must be safe for
// concurrent use: RunSuite consults the cache from one goroutine per
// experiment. A Put failure never fails the present run — a cache that
// cannot persist only costs a future re-run — but it is not silent
// either: the suite counts it in the obs registry and warns once per
// process so a permanently broken cache directory gets noticed.
type Cache interface {
	Get(id string, o Options, csv bool) ([]byte, bool)
	Put(id string, o Options, csv bool, output []byte) error
}

// SuiteResult is the outcome of one experiment in a RunSuite call.
type SuiteResult struct {
	ID     string
	Output []byte
	Err    error
	// Cached reports that Output was replayed from the cache.
	Cached  bool
	Elapsed time.Duration
}

// RunSuite executes the requested experiments concurrently on the
// shared slot pool and calls emit exactly once per id, in request
// order, as soon as each ordered prefix is complete — so output
// streams while later experiments are still running, byte-identical
// to a serial run. Unknown ids surface as SuiteResult.Err (callers
// that want to reject them up front validate against Lookup first).
// A failed experiment never stops the others.
//
// Each experiment holds one compute slot while it runs; point-level
// parallelMap work inside an experiment interleaves on the same pool
// (see internal/slots). With parallelWorkers == 1 the suite degrades to a
// strictly sequential in-order loop — the determinism reference.
func RunSuite(ids []string, o Options, csv bool, cache Cache, emit func(SuiteResult)) {
	if parallelWorkers == 1 {
		for _, id := range ids {
			emit(runOne(id, o, csv, cache))
		}
		return
	}
	results := make([]SuiteResult, len(ids))
	ready := make([]chan struct{}, len(ids))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	for i, id := range ids {
		go func(i int, id string) {
			defer close(ready[i])
			results[i] = runOne(id, o, csv, cache)
		}(i, id)
	}
	for i := range ids {
		<-ready[i]
		emit(results[i])
	}
}

// RunLive executes one experiment live on a compute slot the caller
// already holds, producing exactly the bytes runOne (and therefore the
// `experiments` CLI) would render for the same (id, Options, csv)
// tuple. It is the serving entry point: cmd/hswsimd admits a request
// through its bounded queue, acquires a slot itself, and runs here —
// so a server run can never bypass or double-acquire the scheduler.
// Recording and accounting match the suite path: the options carry id
// into newSystem, so platforms register with an installed Recorder, and
// the per-experiment run counter increments.
// The run carries the CPU profiler label exp=<id> (parallelMap adds
// point=<index>), so a plain -cpuprofile splits by experiment.
func RunLive(id string, o Options, csv bool) ([]byte, error) {
	d, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment id %q", id)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o.liveID = id
	start := time.Now()
	var buf bytes.Buffer
	var err error
	pprof.Do(context.Background(), pprof.Labels("exp", id), func(context.Context) {
		err = d.Run(o, &buf, csv)
	})
	obs.HarnessSlotWall.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	obs.ExpRuns.With(id).Inc()
	return buf.Bytes(), nil
}

// runOne resolves, caches and executes a single experiment.
func runOne(id string, o Options, csv bool, cache Cache) SuiteResult {
	d, ok := Lookup(id)
	if !ok {
		return SuiteResult{ID: id, Err: fmt.Errorf("unknown experiment id %q", id)}
	}
	csv = csv && d.CSV
	if activeRecorder.Load() != nil {
		// A span trace or energy profile comes from living through the
		// run: cached bytes carry neither, so a recorded run neither
		// replays nor stores them.
		cache = nil
	}
	start := time.Now()
	if cache != nil {
		if out, hit := cache.Get(id, o, csv); hit {
			return SuiteResult{ID: id, Output: out, Cached: true, Elapsed: time.Since(start)}
		}
	}
	live := time.Now()
	sched.Acquire()
	out, err := RunLive(id, o, csv)
	sched.Release()
	obs.HarnessExperimentWall.Observe(time.Since(live).Nanoseconds())
	if err != nil {
		return SuiteResult{ID: id, Err: err, Elapsed: time.Since(start)}
	}
	if cache != nil {
		if perr := cache.Put(id, o, csv, out); perr != nil {
			// Not fatal (the output is in hand), but not silent: count
			// every failure and warn once so a broken cache directory
			// doesn't quietly disable caching for good.
			obs.CachePutFailures.Inc()
			putWarnOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "warning: result cache put failed for %s (further failures counted, not logged): %v\n", id, perr)
			})
		}
	}
	return SuiteResult{ID: id, Output: out, Elapsed: time.Since(start)}
}

// putWarnOnce gates the once-per-process cache-put warning.
var putWarnOnce sync.Once
