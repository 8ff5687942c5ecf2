// Command experiments regenerates every table and figure of the paper
// against the simulated platform.
//
// Usage:
//
//	experiments -run all            # everything (full fidelity, slow)
//	experiments -run tab4 -scale 0.1
//	experiments -run fig2,fig7,fig8 -csv  # raw points
//	experiments -run ablations -report run.json
//
// Experiment ids: tab1 tab2 tab3 tab4 tab5 fig1 fig2 fig3 fig4 fig5
// fig6 fig7 fig8 extensions catalog ablations fleet.
//
// Experiments run concurrently on a shared process-wide slot pool
// (one slot per GOMAXPROCS); output is buffered per experiment and
// emitted in canonical order, byte-identical to a serial run. Rendered
// results are cached on disk keyed by (experiment, options, format,
// binary identity), so re-running an unchanged experiment replays the
// cached bytes; -no-cache forces live runs, -cache-dir moves or (when
// empty) disables the cache.
//
// -report writes a JSON run manifest (arguments, per-experiment status,
// and a snapshot of the internal metrics registry: events dispatched,
// timer-pool reuse, scheduler slot waits, cache hits/misses, and the
// silent-failure counters) and prints a short human summary on stderr.
// -report-prom writes the same metrics in Prometheus text exposition
// format. Both are strictly out-of-band: the rendered experiment bytes
// on stdout are identical with or without them.
//
// -eprof writes the run's virtual-time energy profile — every simulated
// Joule and nanosecond attributed to experiment → phase → socket → core
// → power component → kernel/AVX/p-state stacks — as pprof protobuf
// (.pb/.pb.gz/.pprof) or folded flamegraph stacks (any other path). It
// is out-of-band like -report, forces live runs like -trace-vt, and is
// deterministic: the same request emits byte-identical profiles.
//
// -cpuprofile, -memprofile and -trace write standard runtime profiles
// of the run for `go tool pprof` / `go tool trace`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"strings"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/obs"
	"hswsim/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable surface: flags are parsed
// from args with a local FlagSet (so tests can invoke run repeatedly in
// one process) and all output goes through the two writers.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runIDs := fs.String("run", "all", "comma-separated experiment ids (tab1..tab5, fig1..fig8, extensions, catalog, ablations, fleet, all)")
	scale := fs.Float64("scale", 1.0, "effort scale: 1.0 = paper-fidelity durations/sample counts")
	seed := fs.Uint64("seed", 0x5eed, "simulation seed")
	fleetNodes := fs.Int("fleet-nodes", 0, "fleet study: max fleet size (0 = scale-derived, up to 4096)")
	fleetSeed := fs.Uint64("fleet-seed", 0, "fleet study: manufacturing-variation seed (0 = -seed)")
	csv := fs.Bool("csv", false, "emit CSV where the result is tabular")
	cacheDir := fs.String("cache-dir", defaultCacheDir(), "result cache directory (empty disables caching)")
	noCache := fs.Bool("no-cache", false, "bypass the result cache: run everything live and do not store results")
	verbose := fs.Bool("v", false, "report per-experiment timing and cache status on stderr")
	reportPath := fs.String("report", "", "write a JSON run manifest (status + metrics) to this file and summarize it on stderr")
	promPath := fs.String("report-prom", "", "write the metrics snapshot in Prometheus text format to this file")
	traceVT := fs.String("trace-vt", "", "write the run's virtual-time span trace to this file (.json = Chrome trace-event format for Perfetto, anything else = text timeline); forces live runs")
	eprofPath := fs.String("eprof", "", "write the run's virtual-time energy profile to this file (.pb, .pb.gz or .pprof = pprof protobuf for `go tool pprof`/Speedscope, anything else = folded flamegraph stacks); forces live runs")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := fs.String("trace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		// -h/-help is a successful outcome — the usage text was what
		// the user asked for — not a flag error. With ContinueOnError
		// it surfaces through the same error path as a genuine parse
		// failure, so distinguish it explicitly.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 2
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 2
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}
	// The heap profile is written after the run body returns (not in a
	// deferred closure, whose failure could not affect the exit code).
	// The file opens up front so a bad path fails fast like the
	// -cpuprofile and -trace open paths.
	var memProfileFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 2
		}
		memProfileFile = f
	}
	// The energy profile opens up front for the same reason -memprofile
	// does: a bad path must fail fast with exit 2, not silently after a
	// long run.
	var eprofFile *os.File
	if *eprofPath != "" {
		f, err := os.Create(*eprofPath)
		if err != nil {
			fmt.Fprintf(stderr, "eprof: %v\n", err)
			return 2
		}
		eprofFile = f
	}
	code := runBody(runFlags{
		runIDs:     *runIDs,
		scale:      *scale,
		seed:       *seed,
		fleetNodes: *fleetNodes,
		fleetSeed:  *fleetSeed,
		csv:        *csv,
		cacheDir:   *cacheDir,
		noCache:    *noCache,
		verbose:    *verbose,
		report:     *reportPath,
		prom:       *promPath,
		traceVT:    *traceVT,
		eprof:      *eprofPath,
		eprofFile:  eprofFile,
	}, fs, stdout, stderr)
	if memProfileFile != nil {
		if err := writeMemProfile(memProfileFile); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			if code == 0 {
				code = 2
			}
		}
	}
	return code
}

// writeMemProfile dumps the allocs profile into the already-open file.
func writeMemProfile(f *os.File) error {
	runtime.GC() // up-to-date live-object statistics
	return writeClose(f, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) })
}

// runFlags carries the parsed request into runBody.
type runFlags struct {
	runIDs     string
	scale      float64
	seed       uint64
	fleetNodes int
	fleetSeed  uint64
	csv        bool
	cacheDir   string
	noCache    bool
	verbose    bool
	report     string
	prom       string
	traceVT    string
	eprof      string
	eprofFile  *os.File
}

// runBody resolves the request and runs the suite — everything between
// profile setup and profile teardown.
func runBody(fl runFlags, fs *flag.FlagSet, stdout, stderr io.Writer) int {
	o := exp.Options{
		Scale: fl.scale,
		Seed:  fl.seed,
		Fleet: exp.FleetOptions{Nodes: fl.fleetNodes, Seed: fl.fleetSeed},
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
		return 2
	}

	// Resolve the request against the suite before anything runs: an
	// unknown id anywhere in the list is an up-front error, not a
	// silently dropped token.
	want := map[string]bool{}
	for _, id := range strings.Split(fl.runIDs, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	all := want["all"]
	delete(want, "all")
	var unknown []string
	for id := range want {
		if _, ok := exp.Lookup(id); !ok {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "unknown experiment id(s): %s\n", strings.Join(unknown, ", "))
		fs.Usage()
		return 2
	}
	var ids []string
	for _, d := range exp.Suite() {
		if all || want[d.ID] {
			ids = append(ids, d.ID)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "no experiments selected")
		fs.Usage()
		return 2
	}

	var cache exp.Cache
	if !fl.noCache && fl.cacheDir != "" {
		c, err := expcache.Open(fl.cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "warning: result cache disabled: %v\n", err)
		} else {
			cache = c
		}
	}

	// A span trace and an energy profile are recorded by living through
	// the simulation, so cached bytes carry neither: one recorder
	// captures both, and recording forces live runs.
	var rec *exp.Recorder
	if fl.traceVT != "" || fl.eprofFile != nil {
		if cache != nil {
			name := "-trace-vt"
			if fl.traceVT == "" {
				name = "-eprof"
			}
			fmt.Fprintf(stderr, "note: %s forces live runs (result cache bypassed)\n", name)
			cache = nil
		}
		rec = exp.EnableRecorder(fl.traceVT != "", fl.eprofFile != nil)
		defer exp.DisableRecorder()
	}
	// Wall-clock harness spans cost one lock per experiment/point/slot;
	// record them whenever some out-of-band report will surface them.
	var harness *trace.WallCollector
	if fl.report != "" || fl.prom != "" || fl.traceVT != "" {
		harness = exp.EnableHarnessSpans(1 << 16)
		defer exp.DisableHarnessSpans()
	}

	manifest := &obs.Manifest{
		Tool: "experiments",
		Args: map[string]string{
			"run":   fl.runIDs,
			"scale": fmt.Sprintf("%g", fl.scale),
			"seed":  fmt.Sprintf("%#x", fl.seed),
			"csv":   fmt.Sprintf("%t", fl.csv),
			"cache": fmt.Sprintf("%t", cache != nil),
		},
	}
	wallStart := time.Now()

	// Run everything requested even when some experiments fail; report
	// every failure and exit nonzero at the end.
	failed := 0
	exp.RunSuite(ids, o, fl.csv, cache, func(r exp.SuiteResult) {
		info := obs.ExperimentInfo{
			ID: r.ID, Cached: r.Cached,
			ElapsedMS: r.Elapsed.Milliseconds(), Bytes: len(r.Output),
		}
		fmt.Fprintf(stdout, "==== %s ====\n", r.ID)
		if r.Err != nil {
			failed++
			info.Err = r.Err.Error()
			manifest.Experiments = append(manifest.Experiments, info)
			fmt.Fprintf(stderr, "%s: %v\n", r.ID, r.Err)
			return
		}
		stdout.Write(r.Output)
		fmt.Fprintln(stdout)
		manifest.Experiments = append(manifest.Experiments, info)
		if fl.verbose {
			how := "ran"
			if r.Cached {
				how = "cache hit"
			}
			fmt.Fprintf(stderr, "%s: %s in %v\n", r.ID, how, r.Elapsed.Round(time.Millisecond))
		}
	})
	if fl.traceVT != "" {
		export := rec.WriteTimeline
		if strings.HasSuffix(fl.traceVT, ".json") {
			export = rec.WriteChrome
		}
		if err := writeFile(fl.traceVT, export); err != nil {
			fmt.Fprintf(stderr, "trace-vt: %v\n", err)
			failed++
		}
	}
	if fl.eprofFile != nil {
		export := rec.WriteFolded
		if strings.HasSuffix(fl.eprof, ".pb") || strings.HasSuffix(fl.eprof, ".pb.gz") ||
			strings.HasSuffix(fl.eprof, ".pprof") {
			export = func(w io.Writer) error { return rec.WritePprof(w, "") }
		}
		if err := writeClose(fl.eprofFile, export); err != nil {
			fmt.Fprintf(stderr, "eprof: %v\n", err)
			failed++
		}
	}
	if fl.report != "" || fl.prom != "" {
		manifest.Failed = failed
		manifest.WallMS = time.Since(wallStart).Milliseconds()
		manifest.Metrics = obs.Snapshot()
		if fl.traceVT != "" {
			manifest.Traces = rec.Infos()
		}
		if fl.eprofFile != nil {
			info := rec.Info()
			manifest.Profile = &info
		}
		for _, cat := range harness.Summary() {
			manifest.Harness = append(manifest.Harness, obs.HarnessCat{
				Cat: cat.Cat, Count: cat.Count, TotalMS: cat.Total.Milliseconds(),
			})
		}
		if fl.report != "" {
			if err := writeFile(fl.report, manifest.WriteJSON); err != nil {
				fmt.Fprintf(stderr, "report: %v\n", err)
				failed++
			} else {
				manifest.WriteSummary(stderr)
			}
		}
		if fl.prom != "" {
			if err := writeFile(fl.prom, func(w io.Writer) error {
				return obs.WritePrometheus(w, manifest.Metrics)
			}); err != nil {
				fmt.Fprintf(stderr, "report-prom: %v\n", err)
				failed++
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// writeFile creates path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeClose(f, write)
}

// writeClose writes the already-open f with write and closes it,
// returning the first error.
func writeClose(f *os.File, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// defaultCacheDir places the cache under the user cache directory; an
// unresolvable home disables caching rather than writing somewhere odd.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "hswsim", "experiments")
}
