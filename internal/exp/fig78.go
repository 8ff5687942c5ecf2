package exp

import (
	"fmt"
	"math"

	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// streamBytesPerInst is the per-instruction traffic of the read kernels
// (used to convert instruction rates into bandwidth, as the benchmark
// itself knows its access pattern).
const streamBytesPerInst = 8.0

// Level selects the memory level a bandwidth experiment reads from.
type Level int

const (
	LevelL3 Level = iota
	LevelDRAM
)

func (l Level) String() string {
	if l == LevelL3 {
		return "L3"
	}
	return "DRAM"
}

// kernelFor returns the paper's read kernel for a level (17 MB for L3,
// 350 MB for DRAM, selected by footprint).
func kernelFor(l Level, spec *uarch.Spec) workload.Kernel {
	footprint := 17 << 20
	if l == LevelDRAM {
		footprint = 350 << 20
	}
	return workload.Stream(footprint, spec.Cache.L2Bytes, spec.L3Bytes())
}

// measureBandwidth runs the read benchmark on the given cores/threads at
// a frequency setting and returns the aggregate read bandwidth in GB/s,
// measured from retired instructions (each instruction moves
// streamBytesPerInst bytes).
func measureBandwidth(sys *core.System, level Level, cores, threads int, set uarch.MHz, dur sim.Time) (float64, error) {
	k := kernelFor(level, sys.Spec())
	for cpu := 0; cpu < sys.Spec().Cores; cpu++ {
		var err error
		if cpu < cores {
			err = sys.AssignKernel(cpu, k, threads)
		} else {
			err = sys.AssignKernel(cpu, nil, 1)
		}
		if err != nil {
			return 0, err
		}
	}
	sys.SetPStateAll(set)
	sys.Run(10 * sim.Millisecond) // apply and settle UFS
	before := make([]perfctr.Snapshot, cores)
	for cpu := 0; cpu < cores; cpu++ {
		before[cpu] = sys.Core(cpu).Snapshot()
	}
	sys.Run(dur)
	total := 0.0
	for cpu := 0; cpu < cores; cpu++ {
		iv := perfctr.Delta(before[cpu], sys.Core(cpu).Snapshot())
		total += iv.GIPS() * streamBytesPerInst
	}
	return total, nil
}

// Fig7Point is one relative-bandwidth sample.
type Fig7Point struct {
	Arch     uarch.Generation
	Level    Level
	FreqGHz  float64
	Relative float64 // bandwidth normalized to the base-frequency value
	AbsGBs   float64
}

// Fig7Result holds the cross-generation frequency scaling data.
type Fig7Result struct {
	Points []Fig7Point
}

// Fig7 reproduces Figure 7: shared L3 and DRAM read bandwidth at
// maximum thread concurrency versus core frequency, normalized to the
// bandwidth at base frequency, for Haswell-EP, Sandy Bridge-EP and
// Westmere-EP.
func Fig7(o Options) (*Fig7Result, error) {
	res := &Fig7Result{}
	dur := o.dur(2 * sim.Second)
	type job struct {
		gen   uarch.Generation
		level Level
		f     uarch.MHz
	}
	var jobs []job
	// One idle parent platform per generation; every (level, frequency)
	// point measures on its own fork of its generation's parent.
	parents := map[uarch.Generation]*core.System{}
	for _, gen := range []uarch.Generation{uarch.HaswellEP, uarch.SandyBridgeEP, uarch.WestmereEP} {
		cfg := configFor(gen)
		cfg.Seed = o.seed()
		parent, err := o.newSystem(cfg)
		if err != nil {
			return nil, err
		}
		parents[gen] = parent
		spec := cfg.Spec
		freqs := spec.PStates()
		// Parts whose p-state step does not divide the range (Westmere's
		// 133 MHz bins) need the base frequency added explicitly for the
		// normalization point.
		if freqs[len(freqs)-1] != spec.BaseMHz {
			freqs = append(freqs, spec.BaseMHz)
		}
		for _, level := range []Level{LevelL3, LevelDRAM} {
			for _, f := range freqs {
				jobs = append(jobs, job{gen: gen, level: level, f: f})
			}
		}
	}
	bws, err := parallelMap(o, jobs, func(j job) (float64, error) {
		return bwAt(parents[j.gen], j.level, j.f, dur)
	})
	if err != nil {
		return nil, err
	}
	// Normalize each (arch, level) series to its base-frequency point.
	base := map[[2]int]float64{}
	for i, j := range jobs {
		if j.f == configFor(j.gen).Spec.BaseMHz {
			base[[2]int{int(j.gen), int(j.level)}] = bws[i]
		}
	}
	res.Points = make([]Fig7Point, 0, len(jobs))
	for i, j := range jobs {
		rel := 0.0
		if b := base[[2]int{int(j.gen), int(j.level)}]; b > 0 {
			rel = bws[i] / b
		}
		res.Points = append(res.Points, Fig7Point{
			Arch: j.gen, Level: j.level, FreqGHz: j.f.GHz(), Relative: rel, AbsGBs: bws[i],
		})
	}
	return res, nil
}

func configFor(gen uarch.Generation) core.Config {
	switch gen {
	case uarch.SandyBridgeEP:
		return core.SandyBridgeConfig()
	case uarch.WestmereEP:
		return core.WestmereConfig()
	default:
		return core.DefaultConfig()
	}
}

// bwAt measures one bandwidth point on a fork of the idle parent
// platform (bitwise-equal to building a fresh system, minus the
// construction cost). The paper measures on processor 1 with processor
// 0 idle; with deterministic per-socket asymmetry we measure on socket
// 0's cores and keep the other socket idle, which is equivalent up to
// the silicon lottery.
func bwAt(parent *core.System, level Level, set uarch.MHz, dur sim.Time) (float64, error) {
	sys, err := parent.Fork()
	if err != nil {
		return 0, err
	}
	return measureBandwidth(sys, level, sys.Spec().Cores, sys.Spec().ThreadsPerCore, set, dur)
}

// Series extracts one (arch, level) relative-bandwidth series.
func (r *Fig7Result) Series(gen uarch.Generation, level Level) (freqs, rel []float64) {
	for _, p := range r.Points {
		if p.Arch == gen && p.Level == level {
			freqs = append(freqs, p.FreqGHz)
			rel = append(rel, p.Relative)
		}
	}
	return
}

// Render draws both panels.
func (r *Fig7Result) Render() string {
	out := "Figure 7: relative read bandwidth at maximum concurrency vs core frequency\n\n"
	for _, level := range []Level{LevelL3, LevelDRAM} {
		p := &report.Plot{
			Title:  fmt.Sprintf("(%s, normalized to base frequency)", level),
			XLabel: "core frequency (GHz)",
			YLabel: "relative bandwidth",
			H:      14,
		}
		for _, gen := range []uarch.Generation{uarch.HaswellEP, uarch.SandyBridgeEP, uarch.WestmereEP} {
			fx, fy := r.Series(gen, level)
			p.Add(gen.String(), fx, fy)
		}
		out += p.String() + "\n"
	}
	return out
}

// Fig8Point is one (cores, threads, frequency) bandwidth sample.
type Fig8Point struct {
	Level   Level
	Cores   int
	Threads int
	FreqGHz float64
	GBs     float64
}

// Fig8Result holds the concurrency x frequency bandwidth surfaces.
type Fig8Result struct {
	Points []Fig8Point
}

// Fig8 reproduces Figure 8: L3 and DRAM read bandwidth on Haswell-EP
// depending on concurrency (1..12 cores, 1-2 threads each) and core
// frequency (1.2..2.5 GHz plus turbo).
func Fig8(o Options) (*Fig8Result, error) {
	res := &Fig8Result{}
	dur := o.dur(sim.Second)
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed()
	spec := cfg.Spec
	freqs := append([]uarch.MHz{}, spec.PStates()...)
	freqs = append(freqs, spec.TurboSettingMHz())
	coreCounts := []int{1, 2, 4, 6, 8, 10, 12}
	grid := make([]Fig8Point, 0, 2*2*len(coreCounts)*len(freqs))
	for _, level := range []Level{LevelL3, LevelDRAM} {
		for _, threads := range []int{1, 2} {
			for _, n := range coreCounts {
				for _, f := range freqs {
					grid = append(grid, Fig8Point{
						Level: level, Cores: n, Threads: threads, FreqGHz: f.GHz(),
					})
				}
			}
		}
	}
	// Each grid point runs on its own fork of one shared idle parent:
	// embarrassingly parallel without affecting determinism.
	parent, err := o.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	points, err := forkMap(o, parent, grid, func(sys *core.System, p Fig8Point) (Fig8Point, error) {
		bw, err := measureBandwidth(sys, p.Level, p.Cores, p.Threads,
			uarch.MHz(p.FreqGHz*1000+0.5), dur)
		if err != nil {
			return p, err
		}
		p.GBs = bw
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// At returns the bandwidth at an exact grid point (0 if absent).
func (r *Fig8Result) At(level Level, cores, threads int, freqGHz float64) float64 {
	for _, p := range r.Points {
		if p.Level == level && p.Cores == cores && p.Threads == threads &&
			math.Abs(p.FreqGHz-freqGHz) < 1e-9 {
			return p.GBs
		}
	}
	return 0
}

// Render prints the two bandwidth grids (2 threads/core view, plus a
// 1-thread DRAM row to show the HT effect).
func (r *Fig8Result) Render() string {
	spec := uarch.E52680v3()
	freqs := append([]uarch.MHz{}, spec.PStates()...)
	freqs = append(freqs, spec.TurboSettingMHz())
	out := ""
	for _, level := range []Level{LevelL3, LevelDRAM} {
		t := report.NewTable(
			fmt.Sprintf("Figure 8 (%s): read bandwidth [GB/s], 2 threads/core", level),
			append([]string{"cores \\ GHz"}, freqLabels(spec, freqs)...)...)
		hm := &report.Heatmap{
			Title:  fmt.Sprintf("intensity (%s, GB/s)", level),
			XLabel: "1.2 GHz .. Turbo ->",
		}
		for _, n := range []int{1, 2, 4, 6, 8, 10, 12} {
			row := []string{fmt.Sprintf("%d", n)}
			var vals []float64
			for _, f := range freqs {
				v := r.At(level, n, 2, f.GHz())
				row = append(row, fmt.Sprintf("%.0f", v))
				vals = append(vals, v)
			}
			t.AddRow(row...)
			hm.YLabels = append(hm.YLabels, fmt.Sprintf("%d cores", n))
			hm.Values = append(hm.Values, vals)
		}
		out += t.String() + "\n" + hm.String() + "\n"
	}
	return out
}

func freqLabels(spec *uarch.Spec, freqs []uarch.MHz) []string {
	out := make([]string, len(freqs))
	for i, f := range freqs {
		out[i] = settingLabel(spec, f)
	}
	return out
}
