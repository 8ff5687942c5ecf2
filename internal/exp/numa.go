package exp

import (
	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// NUMAPoint is one placement configuration's outcome.
type NUMAPoint struct {
	RemoteFrac float64
	Cores      int
	GBs        float64
	PkgW       float64
}

// NUMAStudy sweeps memory placement (local -> interleaved -> remote)
// for the DRAM stream at low and full concurrency on the dual-socket
// platform: QPI latency dominates at low concurrency, QPI bandwidth at
// saturation.
func NUMAStudy(o Options) ([]NUMAPoint, *report.Table, error) {
	dur := o.dur(2 * sim.Second)
	// One idle parent platform; each (cores, remote) placement runs on
	// its own fork with the stream kernel assigned post-fork.
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	type numaJob struct {
		cores  int
		remote float64
	}
	jobs := make([]numaJob, 0, 6)
	for _, cores := range []int{2, 12} {
		for _, remote := range []float64{0, 0.5, 1.0} {
			jobs = append(jobs, numaJob{cores: cores, remote: remote})
		}
	}
	points, err := forkMap(o, parent, jobs,
		func(sys *core.System, j numaJob) (NUMAPoint, error) {
			k := workload.NUMAStream(j.remote)
			for cpu := 0; cpu < j.cores; cpu++ {
				if err := sys.AssignKernel(cpu, k, 2); err != nil {
					return NUMAPoint{}, err
				}
			}
			sys.SetPStateAll(2500)
			sys.Run(50 * sim.Millisecond)
			before := make([]perfctr.Snapshot, j.cores)
			for cpu := 0; cpu < j.cores; cpu++ {
				before[cpu] = sys.Core(cpu).Snapshot()
			}
			a, err := sys.ReadRAPL(0)
			if err != nil {
				return NUMAPoint{}, err
			}
			sys.Run(dur)
			gbs := 0.0
			for cpu := 0; cpu < j.cores; cpu++ {
				iv := perfctr.Delta(before[cpu], sys.Core(cpu).Snapshot())
				gbs += iv.GIPS() * 8
			}
			b, err := sys.ReadRAPL(0)
			if err != nil {
				return NUMAPoint{}, err
			}
			p, d, err := sys.RAPLPowerW(a, b)
			if err != nil {
				return NUMAPoint{}, err
			}
			return NUMAPoint{
				RemoteFrac: j.remote, Cores: j.cores, GBs: gbs, PkgW: p + d,
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("NUMA placement: DRAM stream bandwidth by remote fraction",
		"Cores", "Remote", "GB/s", "pkg+DRAM [W]")
	for _, p := range points {
		t.AddRow(report.F("%d", p.Cores), report.F("%.0f%%", p.RemoteFrac*100),
			report.F("%.1f", p.GBs), report.F("%.1f", p.PkgW))
	}
	return points, t, nil
}

// NUMAAt fetches a point by configuration.
func NUMAAt(points []NUMAPoint, cores int, remote float64) NUMAPoint {
	for _, p := range points {
		if p.Cores == cores && p.RemoteFrac == remote {
			return p
		}
	}
	return NUMAPoint{}
}
