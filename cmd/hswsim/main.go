// Command hswsim is the general-purpose platform runner: pick a
// workload, thread placement, frequency setting and bias, run for a
// stretch of virtual time and report what the hardware did — the
// "drive it yourself" front end to the simulator.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"

	"hswsim/internal/core"
	"hswsim/internal/governor"
	"hswsim/internal/pcu"
	"hswsim/internal/perfctr"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

var kernels = map[string]func() workload.Kernel{
	"idle":        func() workload.Kernel { return nil },
	"busywait":    workload.BusyWait,
	"compute":     workload.Compute,
	"sqrt":        workload.Sqrt,
	"memory":      workload.Memory,
	"dgemm":       workload.DGEMM,
	"l3stream":    workload.L3Stream,
	"memstream":   workload.MemStream,
	"firestarter": workload.Firestarter,
	"linpack":     workload.Linpack,
	"mprime":      workload.Mprime,
	"sinus":       func() workload.Kernel { return workload.Sinus(sim.Second) },
}

var archs = map[string]func() core.Config{
	"hsw": core.DefaultConfig,
	"snb": core.SandyBridgeConfig,
	"wsm": core.WestmereConfig,
}

var biases = map[string]pcu.EPB{
	"performance": pcu.EPBPerformance,
	"balanced":    pcu.EPBBalanced,
	"powersave":   pcu.EPBPowerSave,
}

var governors = map[string]governor.Governor{
	"performance":  governor.Performance{},
	"powersave":    governor.Powersave{},
	"ondemand":     governor.OnDemand{},
	"conservative": governor.Conservative{},
	"memory-aware": governor.MemoryAware{},
}

// settle is the virtual time run before the measurement window opens.
const settle = sim.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind a testable surface, as in
// cmd/experiments: flags are parsed from args with a local FlagSet and
// all output goes through the two writers. A flag outside the
// platform's range exits 2 with the usage text before anything runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hswsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "firestarter", "workload: "+strings.Join(slices.Sorted(maps.Keys(kernels)), ", "))
	cores := fs.Int("cores", 0, "cores per socket to load (0 = all)")
	threads := fs.Int("threads", 2, "threads per core (1 to the spec's threads per core)")
	freq := fs.Int("freq", 0, "p-state setting in MHz (0 = turbo; above base selects turbo)")
	epb := fs.String("epb", "balanced", "energy performance bias: performance, balanced or powersave")
	gov := fs.String("governor", "", "attach a governor: "+strings.Join(slices.Sorted(maps.Keys(governors)), ", "))
	seconds := fs.Float64("seconds", 5, "virtual seconds to measure")
	arch := fs.String("arch", "hsw", "platform: hsw, snb or wsm")
	specFile := fs.String("spec", "", "load a custom processor spec (JSON) instead of -arch")
	traceN := fs.Int("trace", 0, "print the last N completed virtual-time trace spans")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	mk, ok := kernels[*wl]
	if !ok {
		return usage("unknown workload %q", *wl)
	}
	bias, ok := biases[*epb]
	if !ok {
		return usage("unknown epb %q", *epb)
	}
	g, ok := governors[*gov]
	if !ok && *gov != "" {
		return usage("unknown governor %q", *gov)
	}
	mkCfg, ok := archs[*arch]
	if !ok {
		return usage("unknown arch %q", *arch)
	}
	cfg := mkCfg()
	if *specFile != "" {
		spec, err := uarch.LoadSpec(*specFile)
		if err != nil {
			return fail(err)
		}
		cfg.Spec = spec
	}
	spec := cfg.Spec
	// The window must fit sim.Time after the settle phase; the negated
	// range test also rejects NaN.
	maxSeconds := float64(math.MaxInt64/sim.Second - settle/sim.Second)
	switch {
	case !(*seconds > 0 && *seconds < maxSeconds):
		return usage("-seconds %g outside (0, %.3g)", *seconds, maxSeconds)
	case *threads < 1 || *threads > spec.ThreadsPerCore:
		return usage("-threads %d outside [1, %d]", *threads, spec.ThreadsPerCore)
	case *cores < 0 || *cores > spec.Cores:
		return usage("-cores %d outside [0, %d]", *cores, spec.Cores)
	case *freq != 0 && uarch.MHz(*freq) < spec.MinMHz:
		return usage("-freq %d below the lowest p-state, %d MHz", *freq, spec.MinMHz)
	}

	sys, err := core.NewSystem(cfg)
	if err != nil {
		return fail(err)
	}
	if *traceN > 0 {
		sys.EnableTrace(64 * 1024)
	}
	sys.SetEPB(bias)
	perSocket := *cores
	if perSocket == 0 {
		perSocket = spec.Cores
	}
	k := mk()
	var loaded []int
	for s := 0; s < sys.Sockets(); s++ {
		for c := 0; c < perSocket; c++ {
			cpu := s*spec.Cores + c
			if err := sys.AssignKernel(cpu, k, *threads); err != nil {
				return fail(err)
			}
			loaded = append(loaded, cpu)
		}
	}
	set := spec.TurboSettingMHz()
	if *freq != 0 {
		set = uarch.MHz(*freq)
	}
	sys.SetPStateAll(set)
	set = sys.Core(0).Domain().Requested() // the setting the domain accepted

	var runner *governor.Runner
	if g != nil {
		runner = governor.NewRunner(sys, g, loaded, 10*sim.Millisecond)
		runner.Start()
		defer runner.Stop()
	}

	sys.Run(settle)
	start := sys.Now()
	snaps := map[int]perfctr.Snapshot{}
	for _, cpu := range loaded {
		snaps[cpu] = sys.Core(cpu).Snapshot()
	}
	var raps []core.RAPLReading
	var uncs []perfctr.UncoreSnapshot
	for s := 0; s < sys.Sockets(); s++ {
		r, err := sys.ReadRAPL(s)
		if err != nil {
			return fail(err)
		}
		raps = append(raps, r)
		uncs = append(uncs, sys.Socket(s).UncoreSnapshot())
	}
	sys.Run(sim.Time(*seconds * float64(sim.Second)))

	fmt.Fprintf(stdout, "%s: %q on %d cores/socket x %d threads, setting %v, EPB %s\n",
		spec.Model, workload.NameOf(k), perSocket, *threads, set, sys.EPB())
	for s := 0; s < sys.Sockets(); s++ {
		cpu := s * spec.Cores
		iv := perfctr.Delta(snaps[cpu], sys.Core(cpu).Snapshot())
		after, err := sys.ReadRAPL(s)
		if err != nil {
			return fail(err)
		}
		pkgW, dramW, err := sys.RAPLPowerW(raps[s], after)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  socket %d: core %.2f GHz, uncore %.2f GHz, IPC %.2f, pkg %.1f W, DRAM %.1f W, %v\n",
			s, iv.FreqGHz(), perfctr.UncoreFreqGHz(uncs[s], sys.Socket(s).UncoreSnapshot()),
			iv.IPC(), pkgW, dramW, sys.Socket(s).PkgCState())
	}
	totGIPS := 0.0
	for _, cpu := range loaded {
		totGIPS += perfctr.Delta(snaps[cpu], sys.Core(cpu).Snapshot()).GIPS()
	}
	fmt.Fprintf(stdout, "  total: %.1f GIPS, node AC %.1f W\n", totGIPS, sys.Meter().Average(start, sys.Now()))
	if runner != nil {
		fmt.Fprintf(stdout, "  governor: %d transitions issued\n", runner.Transitions)
	}
	if *traceN > 0 {
		fmt.Fprintf(stdout, "\nlast %d trace spans:\n%s", *traceN, sys.Trace().RenderSpans(*traceN))
	}
	return 0
}
