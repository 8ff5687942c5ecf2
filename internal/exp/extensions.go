package exp

// Extension studies beyond the paper's own tables/figures: each one
// makes a *conclusion* of the paper executable — the power-bound
// imbalance it cites, the ACPI-idle-table problem it calls out, and the
// reduced DVFS effectiveness in dynamic scenarios it predicts.

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/cstate"
	"hswsim/internal/governor"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// PowerCapPoint is one socket's behaviour under a programmed limit.
type PowerCapPoint struct {
	CapW      float64
	CoreGHz   [2]float64
	GIPSTotal float64
	PkgW      [2]float64
}

// PowerCapStudy sweeps hardware-enforced package power limits under
// FIRESTARTER — the "performance under a power bound" scenario of
// Rountree et al. that the paper cites when warning about
// manufacturing-variability-induced performance imbalance.
func PowerCapStudy(o Options) ([]PowerCapPoint, *report.Table, error) {
	// The FIRESTARTER-at-turbo placement is the same for every cap:
	// warm it once, fork per cap and program the limit on the fork.
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	for cpu := 0; cpu < parent.CPUs(); cpu++ {
		if err := parent.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			return nil, nil, err
		}
	}
	parent.RequestTurbo()
	points, err := forkMap(o, parent, []float64{120, 100, 85, 70, 55},
		func(sys *core.System, cap float64) (PowerCapPoint, error) {
			for s := 0; s < sys.Sockets(); s++ {
				if err := sys.SetPowerLimitW(s, cap); err != nil {
					return PowerCapPoint{}, err
				}
			}
			sys.Run(o.dur(2 * sim.Second))
			p := PowerCapPoint{CapW: cap}
			dur := o.dur(2 * sim.Second)
			a0 := sys.Core(0).Snapshot()
			a1 := sys.Core(sys.Spec().Cores).Snapshot()
			sys.Run(dur)
			iv0 := perfctr.Delta(a0, sys.Core(0).Snapshot())
			iv1 := perfctr.Delta(a1, sys.Core(sys.Spec().Cores).Snapshot())
			p.CoreGHz[0], p.CoreGHz[1] = iv0.FreqGHz(), iv1.FreqGHz()
			p.GIPSTotal = (iv0.GIPS() + iv1.GIPS()) * float64(sys.Spec().Cores) / 2
			p.PkgW[0] = sys.Socket(0).LastPkgPowerW()
			p.PkgW[1] = sys.Socket(1).LastPkgPowerW()
			return p, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Power-cap sweep: FIRESTARTER under programmed package limits",
		"Cap [W]", "Core p0 [GHz]", "Core p1 [GHz]", "Pkg p0 [W]", "Pkg p1 [W]", "Total GIPS")
	for _, p := range points {
		t.AddRow(report.F("%.0f", p.CapW),
			report.F("%.2f", p.CoreGHz[0]), report.F("%.2f", p.CoreGHz[1]),
			report.F("%.1f", p.PkgW[0]), report.F("%.1f", p.PkgW[1]),
			report.F("%.0f", p.GIPSTotal))
	}
	return points, t, nil
}

// IdleTableVariant is one idle-governor configuration's outcome.
type IdleTableVariant struct {
	Label     string
	StatePick cstate.State
	PkgW      float64
}

// IdleTableStudy runs a periodic short-idle workload (20 us of work
// every 100 us on every core) under two idle governors: one trusting
// the ACPI tables (33/133 us) and one using measured exit latencies.
// The ACPI governor never dares enter C6 for such short idle windows;
// the measured one does, cutting idle power — the paper's argument for
// runtime-correctable tables, quantified.
func IdleTableStudy(o Options) ([]IdleTableVariant, *report.Table, error) {
	const (
		period = 100 * sim.Microsecond
		work   = 20 * sim.Microsecond
	)
	// Both variants drive the same idle platform; fork it per governor.
	// The per-cpu periodic closures are armed on the fork (after the
	// fork point), so each variant's experiment events bind its own
	// platform.
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	type idleVariant struct {
		label string
		gov   *governor.IdleGovernor
	}
	variants := []idleVariant{
		{"ACPI tables (33/133 us)", governor.ACPIIdleGovernor()},
		{"measured tables", governor.MeasuredIdleGovernor(uarch.HaswellEP)},
	}
	out, err := forkMap(o, parent, variants,
		func(sys *core.System, v idleVariant) (IdleTableVariant, error) {
			pick := v.gov.Pick(period - work)
			// Drive every core with the periodic task; the governor's state
			// choice applies during each idle window.
			tick := func(cpu int) func(sim.Time) {
				return func(now sim.Time) {
					if err := sys.AssignKernel(cpu, workload.Compute(), 1); err != nil {
						panic(err)
					}
					sys.Engine.At(now+work, func(t sim.Time) {
						if err := sys.AssignKernel(cpu, nil, 1); err != nil {
							panic(err)
						}
						if err := sys.SleepCore(cpu, pick); err != nil {
							panic(err)
						}
					})
				}
			}
			for cpu := 0; cpu < sys.CPUs(); cpu++ {
				sys.Engine.Every(sim.Time(cpu)*3*sim.Microsecond, period, tick(cpu))
			}
			settle := o.dur(500 * sim.Millisecond)
			meas := o.dur(sim.Second)
			sys.Run(settle)
			a, err := sys.ReadRAPL(0)
			if err != nil {
				return IdleTableVariant{}, err
			}
			sys.Run(meas)
			b, err := sys.ReadRAPL(0)
			if err != nil {
				return IdleTableVariant{}, err
			}
			pkgW, _, err := sys.RAPLPowerW(a, b)
			if err != nil {
				return IdleTableVariant{}, err
			}
			return IdleTableVariant{Label: v.label, StatePick: pick, PkgW: pkgW}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Idle-table study: 20 us work / 80 us idle on all cores",
		"Governor tables", "State chosen", "Package power [W]")
	for _, v := range out {
		t.AddRow(v.Label, v.StatePick.String(), report.F("%.1f", v.PkgW))
	}
	return out, t, nil
}

// DVFSDynamicVariant is one platform's outcome in the dynamic-DVFS
// study.
type DVFSDynamicVariant struct {
	Label       string
	GIPS        float64
	PkgW        float64
	JoulePerGig float64
	Transitions int
}

// DVFSDynamicStudy quantifies the paper's conclusion that the ~500 us
// transition grid reduces DVFS effectiveness "in very dynamic
// scenarios": a stall-aware DVFS governor chases a workload that
// alternates compute and memory phases every few milliseconds, on the
// stock Haswell-EP grid versus hypothetical immediate transitions.
func DVFSDynamicStudy(o Options) ([]DVFSDynamicVariant, *report.Table, error) {
	phased := &workload.Phased{
		Label:      "compute/memory phases",
		A:          workload.Profile{IPC1: 2.2, IPC2: 2.6, Activity: 0.85},
		B:          workload.Profile{IPC1: 2.0, IPC2: 2.4, Activity: 0.5, MemBytesPerInst: 8},
		HalfPeriod: 3 * sim.Millisecond,
	}
	// The two variants run on different platform specs (a governor timer
	// is armed before any measurement, so there is no quiescent instant
	// to fork); each builds its own platform and they run concurrently.
	type dvfsVariant struct {
		label     string
		immediate bool
	}
	variants := []dvfsVariant{
		{"500 us grid (Haswell-EP)", false},
		{"immediate transitions", true},
	}
	out, err := parallelMap(o, variants, func(v dvfsVariant) (DVFSDynamicVariant, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = o.seed()
		if v.immediate {
			spec := *cfg.Spec
			spec.PStateGridPeriodUS = 0
			spec.PStateSwitchUS = 10
			cfg.Spec = &spec
			cfg.GridJitter = 0
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return DVFSDynamicVariant{}, err
		}
		cpus := make([]int, cfg.Spec.Cores)
		for cpu := range cpus {
			cpus[cpu] = cpu
			if err := sys.AssignKernel(cpu, phased, 2); err != nil {
				return DVFSDynamicVariant{}, err
			}
		}
		sys.RequestTurbo()
		r := governor.NewRunner(sys, governor.MemoryAware{}, cpus, sim.Millisecond)
		r.Start()
		sys.Run(o.dur(sim.Second))
		a, err := sys.ReadRAPL(0)
		if err != nil {
			return DVFSDynamicVariant{}, err
		}
		snap := sys.Core(0).Snapshot()
		sys.Run(o.dur(4 * sim.Second))
		iv := perfctr.Delta(snap, sys.Core(0).Snapshot())
		b, err := sys.ReadRAPL(0)
		if err != nil {
			return DVFSDynamicVariant{}, err
		}
		pkgW, dramW, err := sys.RAPLPowerW(a, b)
		if err != nil {
			return DVFSDynamicVariant{}, err
		}
		r.Stop()
		gips := iv.GIPS() * float64(cfg.Spec.Cores)
		res := DVFSDynamicVariant{
			Label: v.label, GIPS: gips, PkgW: pkgW + dramW,
			Transitions: r.Transitions,
		}
		if gips > 0 {
			res.JoulePerGig = res.PkgW / gips
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Dynamic DVFS: stall-chasing governor on 3 ms phases",
		"Platform", "GIPS", "pkg+DRAM [W]", "J per Ginst", "transitions")
	for _, v := range out {
		t.AddRow(v.Label, report.F("%.1f", v.GIPS), report.F("%.1f", v.PkgW),
			report.F("%.3f", v.JoulePerGig), fmt.Sprintf("%d", v.Transitions))
	}
	return out, t, nil
}
