// Command hswsim is the general-purpose platform runner: pick a
// workload, thread placement, frequency setting and bias, run for a
// stretch of virtual time and report what the hardware did — the
// "drive it yourself" front end to the simulator.
package main

import (
	"flag"
	"fmt"
	"os"
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

func main() {
	wl := flag.String("workload", "firestarter", "workload: "+strings.Join(names(), ", "))
	cores := flag.Int("cores", 0, "cores per socket to load (0 = all)")
	threads := flag.Int("threads", 2, "threads per core (1 or 2)")
	freq := flag.Int("freq", 0, "p-state setting in MHz (0 = turbo)")
	epb := flag.String("epb", "balanced", "energy performance bias")
	gov := flag.String("governor", "", "attach a governor: performance, powersave, ondemand, conservative, memory-aware")
	seconds := flag.Float64("seconds", 5, "virtual seconds to run")
	arch := flag.String("arch", "hsw", "platform: hsw, snb or wsm")
	specFile := flag.String("spec", "", "load a custom processor spec (JSON) instead of -arch")
	traceN := flag.Int("trace", 0, "print the last N completed virtual-time trace spans")
	flag.Parse()

	mk, ok := kernels[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	var cfg core.Config
	switch *arch {
	case "hsw":
		cfg = core.DefaultConfig()
	case "snb":
		cfg = core.SandyBridgeConfig()
	case "wsm":
		cfg = core.WestmereConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", *arch)
		os.Exit(2)
	}
	if *specFile != "" {
		spec, err := uarch.LoadSpec(*specFile)
		exitOn(err)
		cfg.Spec = spec
	}
	sys, err := core.NewSystem(cfg)
	exitOn(err)
	if *traceN > 0 {
		sys.EnableTrace(64 * 1024)
	}

	switch *epb {
	case "performance":
		sys.SetEPB(pcu.EPBPerformance)
	case "balanced":
		sys.SetEPB(pcu.EPBBalanced)
	case "powersave":
		sys.SetEPB(pcu.EPBPowerSave)
	default:
		fmt.Fprintf(os.Stderr, "unknown epb %q\n", *epb)
		os.Exit(2)
	}

	perSocket := *cores
	if perSocket <= 0 || perSocket > cfg.Spec.Cores {
		perSocket = cfg.Spec.Cores
	}
	k := mk()
	var loaded []int
	for s := 0; s < sys.Sockets(); s++ {
		for c := 0; c < perSocket; c++ {
			cpu := s*cfg.Spec.Cores + c
			exitOn(sys.AssignKernel(cpu, k, *threads))
			loaded = append(loaded, cpu)
		}
	}
	set := cfg.Spec.TurboSettingMHz()
	if *freq > 0 {
		set = uarch.MHz(*freq)
	}
	sys.SetPStateAll(set)

	var runner *governor.Runner
	if *gov != "" {
		var g governor.Governor
		switch *gov {
		case "performance":
			g = governor.Performance{}
		case "powersave":
			g = governor.Powersave{}
		case "ondemand":
			g = governor.OnDemand{}
		case "conservative":
			g = governor.Conservative{}
		case "memory-aware":
			g = governor.MemoryAware{}
		default:
			fmt.Fprintf(os.Stderr, "unknown governor %q\n", *gov)
			os.Exit(2)
		}
		runner = governor.NewRunner(sys, g, loaded, 10*sim.Millisecond)
		runner.Start()
	}

	settle := sim.Second
	run := sim.Time(*seconds * float64(sim.Second))
	sys.Run(settle)
	start := sys.Now()
	snaps := map[int]perfctr.Snapshot{}
	for _, cpu := range loaded {
		snaps[cpu] = sys.Core(cpu).Snapshot()
	}
	var raps []core.RAPLReading
	for s := 0; s < sys.Sockets(); s++ {
		r, err := sys.ReadRAPL(s)
		exitOn(err)
		raps = append(raps, r)
	}
	sys.Run(run)

	fmt.Printf("%s: %q on %d cores/socket x %d threads, setting %v, EPB %s\n",
		cfg.Spec.Model, workload.NameOf(k), perSocket, *threads, set, sys.EPB())
	totGIPS := 0.0
	for s := 0; s < sys.Sockets(); s++ {
		cpu := s * cfg.Spec.Cores
		if _, ok := snaps[cpu]; !ok {
			continue
		}
		iv := perfctr.Delta(snaps[cpu], sys.Core(cpu).Snapshot())
		after, err := sys.ReadRAPL(s)
		exitOn(err)
		pkgW, dramW, err := sys.RAPLPowerW(raps[s], after)
		exitOn(err)
		fmt.Printf("  socket %d: core %.2f GHz, IPC %.2f, pkg %.1f W, DRAM %.1f W, %v\n",
			s, iv.FreqGHz(), iv.IPC(), pkgW, dramW, sys.Socket(s).PkgCState())
	}
	for _, cpu := range loaded {
		iv := perfctr.Delta(snaps[cpu], sys.Core(cpu).Snapshot())
		totGIPS += iv.GIPS()
	}
	fmt.Printf("  total: %.1f GIPS, node AC %.1f W\n", totGIPS, sys.Meter().Average(start, sys.Now()))
	if runner != nil {
		fmt.Printf("  governor: %d transitions issued\n", runner.Transitions)
		runner.Stop()
	}
	if *traceN > 0 {
		fmt.Printf("\nlast %d trace spans:\n%s", *traceN, sys.Trace().RenderSpans(*traceN))
	}
}

func names() []string {
	var out []string
	for k := range kernels {
		out = append(out, k)
	}
	// deterministic order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
