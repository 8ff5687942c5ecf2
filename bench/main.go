// Command bench is hswsim's end-to-end and per-layer benchmark. It
// drives four workloads through the entry points users hit —
// exp.RunSuite with no cache, as `experiments -no-cache` does, and the
// hswsimd handler from server.New — checks every output byte, and
// prints one `name value unit` line per metric followed by one JSON
// line. See README.md for the workloads, metrics and modes.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload suite -seed 7 -seconds 28 -trace 0
//	bench -workload all                  # every workload, untraced
//	bench -workload steady -trace 1      # per-layer metrics + span file
//	bench -golden                        # suite at scale 0.5 vs results/
//	bench -compare base/*.json -- head/*.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many processes an untraced run spreads its -seconds
// over: each pays one cold set-up within its share, and setup_s is their
// median.
const setups = 3

// measureProcs is the GOMAXPROCS of an untraced run's processes. On one
// P the pass and the reference loop run alike on one core; with two, a
// pass also waits on whichever core the neighbours slow most, which the
// loop does not see. The traced run keeps every CPU, so the slot
// scheduler's per-layer counts show its parallel work.
const measureProcs = 1

// runSeconds is the default -seconds, BENCHMARK.json's run_seconds.
const runSeconds = 28

// runDeadline bounds one workload's run, child processes included.
const runDeadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run request.
type config struct {
	seed      uint64
	seconds   float64
	traced    bool
	out       string
	traceFile string
	results   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: suite, steady, fleet, serve or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "seconds one workload's run takes, set-ups included")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write a span file")
	traceFile := fs.String("trace-file", "", "span file of a traced run (default <out>/traces/<workload>.trace.json; ignored with -workload all)")
	results := fs.String("results", "", "results JSON path (default <out>/results/<workload>-seed<seed>-trace<0|1>-<time>.json; ignored with -workload all)")
	out := fs.String("out", ".bench_build", "directory for results, traces and scratch files")
	golden := fs.Bool("golden", false, "render the suite at scale 0.5 and compare it with results/experiments-scale0.5.txt")
	compare := fs.Bool("compare", false, "compare result files: -compare base.json... -- head.json...")
	child := fs.Int("child", -1, "internal: run as measuring process number n of a run")
	t0 := fs.Int64("t0", 0, "internal: exec time of a measuring process, Unix ns")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *golden:
		return runGolden(stdout, stderr)
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0 and no positional arguments")
		fs.Usage()
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			fs.Usage()
			return 2
		}
		ws = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out,
		traceFile: *traceFile, results: *results}
	if *child >= 0 {
		start := time.Now()
		if *t0 != 0 {
			start = time.Unix(0, *t0)
		}
		return runChild(ws[0], *child, start, cfg, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	final := summary{Correct: true, Metrics: map[string]valueUnit{}}
	for _, w := range ws {
		c := cfg
		if len(ws) > 1 {
			c.results, c.traceFile = "", ""
		}
		r, err := runWorkload(ctx, w, c, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "."
		}
		for _, def := range r.defs {
			v := r.Metrics[def.name].Value
			fmt.Fprintf(stdout, "%s%s %s %s\n", prefix, def.name, strconv.FormatFloat(v, 'g', -1, 64), def.unit)
			final.Metrics[prefix+def.name] = valueUnit{v, def.unit}
		}
		for _, def := range infoDefs {
			if s, ok := r.Info[def.name]; ok {
				fmt.Fprintf(stdout, "%s%s %s %s\n", prefix, def.name, strconv.FormatFloat(s.Value, 'g', -1, 64), def.unit)
			}
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final stdout line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// childReport is what one measuring process hands back to the run.
type childReport struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Setup      pass               `json:"setup"`
	Passes     []pass             `json:"passes"`
	Layer      map[string]float64 `json:"layer,omitempty"`
}

// runChild is one measuring process, exec'd at t0: it runs its share of
// the workload, -seconds from t0, and writes its report as JSON on
// stdout.
func runChild(w workload, n int, t0 time.Time, cfg config, stdout, stderr io.Writer) int {
	var rep childReport
	var err error
	budget := secs(cfg.seconds)
	switch {
	case cfg.traced:
		rep, err = runTraced(w, cfg.seed, fullSize, t0, budget, cfg.out, cfg.traceFile,
			fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, t0.UnixNano()))
	case w.name == "serve":
		var tmp string
		if tmp, err = tmpDir(cfg.out); err == nil {
			rep, err = runServeChild(cfg.seed, n, fullSize, t0, budget, tmp)
		}
	default:
		rep, err = runSimChild(w, fullSize, t0, budget)
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s child %d: %v\n", w.name, n, err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in fresh processes of this binary, so
// peak RSS and counter deltas belong to that workload alone, then
// aggregates, checks and records the result.
func runWorkload(ctx context.Context, w workload, cfg config, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stamp := time.Now().Format("20060102T150405.000000000")
	if cfg.traced && cfg.traceFile == "" {
		cfg.traceFile = filepath.Join(cfg.out, "traces", w.name+".trace.json")
	}
	if cfg.results == "" {
		cfg.results = filepath.Join(cfg.out, "results",
			fmt.Sprintf("%s-seed%d-trace%d-%s.json", w.name, cfg.seed, b2i(cfg.traced), stamp))
	}
	procs := setups
	if cfg.traced {
		procs = 1
	}
	end := time.Now().Add(secs(cfg.seconds))
	var reps []childReport
	for n := 0; n < procs; n++ {
		t0 := time.Now()
		share := shareOf(end, t0, procs-n)
		args := []string{"-child", strconv.Itoa(n), "-workload", w.name, "-t0", strconv.FormatInt(t0.UnixNano(), 10),
			"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.FormatFloat(share.Seconds(), 'g', -1, 64),
			"-trace", strconv.Itoa(b2i(cfg.traced)), "-out", cfg.out, "-trace-file", cfg.traceFile}
		cmd := exec.CommandContext(ctx, exe, args...)
		if !cfg.traced {
			cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(measureProcs))
		}
		var outBuf strings.Builder
		cmd.Stdout, cmd.Stderr = &outBuf, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", n, err)
		}
		var rep childReport
		if err := json.Unmarshal([]byte(outBuf.String()), &rep); err != nil {
			return nil, fmt.Errorf("measuring process %d report: %w", n, err)
		}
		reps = append(reps, rep)
	}
	r, err := aggregate(w, cfg, reps)
	if err != nil {
		return nil, err
	}
	for _, e := range r.errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, e)
	}
	if cfg.traced {
		fmt.Fprintf(stderr, "bench: %s: spans written to %s\n", w.name, cfg.traceFile)
	}
	return r, writeResults(cfg.results, r)
}

// shareOf is the budget of a process started at t0 with left processes
// still to run, itself included: an even share of what is left of a run
// that ends at end, so one that ends early or late moves the others'
// shares, not the run's end. A process whose share is spent before it
// starts still gets a positive budget; it sets up and runs one pass.
func shareOf(end, t0 time.Time, left int) time.Duration {
	return max(end.Sub(t0)/time.Duration(left), time.Millisecond)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metricStats is one metric of a results file.
type metricStats struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	stats
}

// result is one run's results file.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      int                    `json:"trace"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"num_cpu"`
	GoVersion  string                 `json:"go_version"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricStats `json:"metrics"`
	Info       map[string]metricStats `json:"info,omitempty"`
	// Counts are the obs counter deltas of every timed pass.
	Counts []counts `json:"counts,omitempty"`

	defs   []metricDef
	errors []string
}

// infoDefs are printed and recorded beside the end-to-end metrics but
// not gated. fail_ratio is 0 on a clean run (the final line's failed and
// attempted carry it). host_wall_s is the median pass's wall time as
// measured and ref_ms the median reference loop, the host speed that
// wall_s divides out. The serve request latencies and throughput have
// no counterpart on the simulation workloads.
var infoDefs = []metricDef{
	{"fail_ratio", "ratio", "lower", 0},
	{"host_wall_s", "s", "lower", 0},
	{"ref_ms", "ms", "lower", 0},
	{"req_p50_ms", "ms", "lower", 0},
	{"req_p99_ms", "ms", "lower", 0},
	{"live_p50_ms", "ms", "lower", 0},
	{"throughput_rps", "1/s", "higher", 0},
}

// aggregate checks every pass of a run and reduces the measuring
// processes' reports to the run's metrics. A simulation pass fails on
// an error or a digest that differs from the workload's pinned digest
// (or, unpinned, from the run's first such pass); set-up passes have
// their own.
func aggregate(w workload, cfg config, reps []childReport) (*result, error) {
	r := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: b2i(cfg.traced),
		GOMAXPROCS: reps[0].GOMAXPROCS, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: map[string]metricStats{}, Info: map[string]metricStats{}}
	setupRef, ref := w.setupDigest, w.digest
	check := func(p pass, ref *string) {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		r.errors = append(r.errors, p.Errors...)
		if p.Digest == "" {
			return
		}
		if *ref == "" {
			*ref = p.Digest
		}
		if p.Digest != *ref && p.Failed == 0 {
			r.Failed++
			r.errors = append(r.errors, fmt.Sprintf("output digest %s, want %s", p.Digest, *ref))
		}
	}
	var walls, hostWalls, refs, setups, rss, ops, live []float64
	for _, rep := range reps {
		check(rep.Setup, &setupRef)
		setups = append(setups, normalized(rep.Setup.Wall, rep.Setup.Ref))
		for _, p := range rep.Passes {
			check(p, &ref)
			walls = append(walls, normalized(p.Wall, p.Ref))
			hostWalls = append(hostWalls, p.Wall)
			rss = append(rss, p.PeakRSS)
			refs = append(refs, p.Ref*1e3)
			ops = append(ops, p.Ops...)
			live = append(live, p.Live...)
			r.Counts = append(r.Counts, p.Counts)
		}
	}
	r.Correct = r.Failed == 0
	if r.Attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	put := func(into map[string]metricStats, def metricDef, v float64, s stats) {
		into[def.name] = metricStats{Value: v, Unit: def.unit, Better: def.better, Bound: def.bound, stats: s}
	}
	if cfg.traced {
		r.defs = perLayer
		for _, def := range perLayer {
			v, ok := reps[0].Layer[def.name]
			if !ok {
				return nil, fmt.Errorf("traced run did not report %s", def.name)
			}
			put(r.Metrics, def, v, summarize([]float64{v}))
		}
		return r, nil
	}
	r.defs = endToEnd
	s := summarize(walls)
	put(r.Metrics, endToEnd[0], s.Median, s)
	s = summarize(setups)
	put(r.Metrics, endToEnd[1], s.Median, s)
	s = summarize(rss)
	put(r.Metrics, endToEnd[2], s.Median, s)

	put(r.Info, infoDefs[0], ratio(float64(r.Failed), float64(r.Attempted)), stats{N: r.Attempted})
	s = summarize(hostWalls)
	put(r.Info, infoDefs[1], s.Median, s)
	s = summarize(refs)
	put(r.Info, infoDefs[2], s.Median, s)
	if len(ops) > 0 {
		total := 0.0
		for _, x := range hostWalls {
			total += x
		}
		put(r.Info, infoDefs[3], percentile(ops, 0.5), stats{N: len(ops)})
		put(r.Info, infoDefs[4], percentile(ops, 0.99), stats{N: len(ops)})
		put(r.Info, infoDefs[5], percentile(live, 0.5), stats{N: len(live)})
		put(r.Info, infoDefs[6], ratio(float64(len(ops)), total), stats{N: len(ops)})
	}
	return r, nil
}

func writeResults(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
