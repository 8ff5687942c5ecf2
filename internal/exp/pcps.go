package exp

import (
	"hswsim/internal/core"
	"hswsim/internal/governor"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// PCPSVariant is one per-core-p-state configuration's outcome on a
// heterogeneous workload.
type PCPSVariant struct {
	Label       string
	ComputeGIPS float64
	StreamGBs   float64
	PkgW        float64
}

// PCPSStudy quantifies the paper's motivation for per-core p-states:
// "energy-aware runtimes ... lower the power consumption of single
// cores while keeping the performance of other cores at a high level."
// Two cores run compute at turbo while ten run DRAM streams (enough to
// saturate the channels even at 1.2 GHz — Figure 8); a stall-aware
// governor drops the streaming cores' clocks. With PCPS the socket
// keeps compute fast and streams cheap; with a single frequency domain
// (pre-Haswell) the fastest request pins every core's clock high and
// burns the difference.
func PCPSStudy(o Options) ([]PCPSVariant, *report.Table, error) {
	var out []PCPSVariant
	for _, v := range []struct {
		label string
		pcps  bool
	}{
		{"per-core p-states (Haswell-EP)", true},
		{"single frequency domain", false},
	} {
		cfg := core.DefaultConfig()
		cfg.Seed = o.seed()
		cfg.PCPSEnabled = v.pcps
		sys, err := o.newSystem(cfg)
		if err != nil {
			return nil, nil, err
		}
		var cpus []int
		for cpu := 0; cpu < 12; cpu++ {
			k := workload.Compute()
			if cpu >= 2 {
				k = workload.MemStream()
			}
			if err := sys.AssignKernel(cpu, k, 2); err != nil {
				return nil, nil, err
			}
			cpus = append(cpus, cpu)
		}
		sys.RequestTurbo()
		r := governor.NewRunner(sys, governor.MemoryAware{}, cpus, 10*sim.Millisecond)
		r.Start()
		sys.Run(o.dur(sim.Second))
		a, err := sys.ReadRAPL(0)
		if err != nil {
			return nil, nil, err
		}
		before := make([]perfctr.Snapshot, 12)
		for cpu := 0; cpu < 12; cpu++ {
			before[cpu] = sys.Core(cpu).Snapshot()
		}
		sys.Run(o.dur(2 * sim.Second))
		variant := PCPSVariant{Label: v.label}
		for cpu := 0; cpu < 12; cpu++ {
			iv := perfctr.Delta(before[cpu], sys.Core(cpu).Snapshot())
			if cpu < 2 {
				variant.ComputeGIPS += iv.GIPS()
			} else {
				variant.StreamGBs += iv.GIPS() * 8
			}
		}
		b, err := sys.ReadRAPL(0)
		if err != nil {
			return nil, nil, err
		}
		p, d, err := sys.RAPLPowerW(a, b)
		if err != nil {
			return nil, nil, err
		}
		variant.PkgW = p + d
		r.Stop()
		out = append(out, variant)
	}
	t := report.NewTable("PCPS study: 2 compute + 10 DRAM-stream cores, stall-aware DVFS",
		"Frequency domains", "Compute GIPS", "Stream GB/s", "pkg+DRAM [W]")
	for _, v := range out {
		t.AddRow(v.Label, report.F("%.1f", v.ComputeGIPS),
			report.F("%.1f", v.StreamGBs), report.F("%.1f", v.PkgW))
	}
	return out, t, nil
}
