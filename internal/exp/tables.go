package exp

import (
	"sort"

	"hswsim/internal/core"
	"hswsim/internal/pcu"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/stats"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Table1 reproduces the paper's Table I: the Sandy Bridge-EP vs
// Haswell-EP microarchitecture comparison, rendered from the spec
// catalog.
func Table1() *report.Table {
	snb, hsw := uarch.E52670SNB(), uarch.E52680v3()
	t := report.NewTable("Table I: Sandy Bridge-EP vs Haswell-EP microarchitecture",
		"Parameter", "Sandy Bridge-EP", "Haswell-EP")
	a, b := snb.TableI, hsw.TableI
	t.AddRow("Decode", a.DecodeWidth, b.DecodeWidth)
	t.AddRow("Allocation queue", a.AllocationQueue, b.AllocationQueue)
	t.AddRow("Execute", report.F("%d micro-ops/cycle", a.ExecuteUopsCycle), report.F("%d micro-ops/cycle", b.ExecuteUopsCycle))
	t.AddRow("Retire", report.F("%d micro-ops/cycle", a.RetireUopsCycle), report.F("%d micro-ops/cycle", b.RetireUopsCycle))
	t.AddRow("Scheduler entries", report.F("%d", a.SchedulerEntries), report.F("%d", b.SchedulerEntries))
	t.AddRow("ROB entries", report.F("%d", a.ROBEntries), report.F("%d", b.ROBEntries))
	t.AddRow("INT/FP register file", report.F("%d/%d", a.IntRegisters, a.FPRegisters), report.F("%d/%d", b.IntRegisters, b.FPRegisters))
	t.AddRow("SIMD ISA", a.SIMDISA, b.SIMDISA)
	t.AddRow("FPU width", a.FPUWidth, b.FPUWidth)
	t.AddRow("FLOPS/cycle (double)", report.F("%d", a.FlopsPerCycleFP64), report.F("%d", b.FlopsPerCycleFP64))
	t.AddRow("Load/store buffers", report.F("%d/%d", a.LoadBuffers, a.StoreBuffers), report.F("%d/%d", b.LoadBuffers, b.StoreBuffers))
	t.AddRow("L1D accesses per cycle",
		report.F("%dx%d byte load + 1x%d byte store", a.L1DLoadPorts, a.L1DLoadBytesCycle, a.L1DStoreBytes),
		report.F("%dx%d byte load + 1x%d byte store", b.L1DLoadPorts, b.L1DLoadBytesCycle, b.L1DStoreBytes))
	t.AddRow("L2 bytes/cycle", report.F("%d", a.L2BytesPerCycle), report.F("%d", b.L2BytesPerCycle))
	t.AddRow("Supported memory", a.SupportedMemory, b.SupportedMemory)
	t.AddRow("DRAM bandwidth", report.F("up to %.1f GB/s", a.DRAMBandwidthGBs), report.F("up to %.1f GB/s", b.DRAMBandwidthGBs))
	t.AddRow("QPI speed", report.F("%.1f GT/s", a.QPISpeedGTs), report.F("%.1f GT/s", b.QPISpeedGTs))
	return t
}

// Table2 reproduces Table II: the test-system description, with the
// idle power measured on the simulated node rather than copied.
func Table2(o Options) (*report.Table, float64, error) {
	sys, err := o.newHSW()
	if err != nil {
		return nil, 0, err
	}
	settle := o.dur(sim.Second)
	window := o.dur(2 * sim.Second)
	sys.Run(settle + window)
	idleW := sys.Meter().Average(settle, settle+window)

	spec := sys.Spec()
	t := report.NewTable("Table II: test system details", "Item", "Value")
	t.AddRow("Processor", report.F("%dx %s", sys.Sockets(), spec.Model))
	t.AddRow("Frequency range (selectable p-states)", report.F("%.1f - %.1f GHz", spec.MinMHz.GHz(), spec.BaseMHz.GHz()))
	t.AddRow("Turbo frequency", report.F("up to %.1f GHz", spec.MaxTurboMHz().GHz()))
	t.AddRow("AVX base frequency", report.F("%.1f GHz", spec.AVXBaseMHz.GHz()))
	t.AddRow("Energy perf. bias", sys.EPB().String())
	t.AddRow("Energy-efficient turbo (EET)", onOff(sys.Config().EETEnabled))
	t.AddRow("Uncore frequency scaling (UFS)", onOff(sys.Config().UFSEnabled))
	t.AddRow("Per-core p-states (PCPS)", onOff(sys.Config().PCPSEnabled))
	t.AddRow("Idle power (fan speed set to maximum)", report.F("%.1f Watt", idleW))
	t.AddRow("Power meter", "ZES LMG450 (simulated)")
	t.AddRow("Accuracy", "0.07 % + 0.23 W")
	return t, idleW, nil
}

func onOff(b bool) string {
	if b {
		return "enabled"
	}
	return "disabled"
}

// Table3Row is one column of the paper's Table III.
type Table3Row struct {
	Setting    uarch.MHz
	ActiveGHz  float64 // uncore frequency of the processor running the thread
	PassiveGHz float64 // uncore frequency of the other processor
}

// Table3 reproduces Table III: uncore frequencies in a single-threaded
// no-memory-stalls scenario (while(1) on processor 0), across all core
// frequency settings. The thread is placed once on a shared parent
// platform and every setting measures on its own fork, so the sweep
// points start from an identical state (no carry-over from the
// previous setting) and run concurrently.
func Table3(o Options) ([]Table3Row, *report.Table, error) {
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	if err := parent.AssignKernel(0, workload.BusyWait(), 1); err != nil {
		return nil, nil, err
	}
	spec := parent.Spec()
	measure := o.dur(10 * sim.Second) // paper: 10 s per setting
	rows, err := forkMap(o, parent, sweepSettings(spec, spec.MinMHz),
		func(sys *core.System, set uarch.MHz) (Table3Row, error) {
			sys.SetPStateAll(set)
			sys.Run(5 * sim.Millisecond) // let the grid apply the setting
			a0 := sys.Socket(0).UncoreSnapshot()
			a1 := sys.Socket(1).UncoreSnapshot()
			sys.Run(measure)
			b0 := sys.Socket(0).UncoreSnapshot()
			b1 := sys.Socket(1).UncoreSnapshot()
			return Table3Row{
				Setting:    set,
				ActiveGHz:  perfctr.UncoreFreqGHz(a0, b0),
				PassiveGHz: perfctr.UncoreFreqGHz(a1, b1),
			}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Table III: uncore frequencies, single-threaded no-memory-stalls (thread on processor 0)",
		"Core frequency setting", "Active uncore [GHz]", "Passive uncore [GHz]")
	for _, r := range rows {
		t.AddRow(settingLabel(spec, r.Setting),
			report.F("%.2f", r.ActiveGHz), report.F("%.2f", r.PassiveGHz))
	}
	return rows, t, nil
}

// Table4Row is one column of the paper's Table IV.
type Table4Row struct {
	Setting    uarch.MHz
	CoreGHz    [2]float64 // measured median core frequency per processor
	UncoreGHz  [2]float64
	GIPSThread [2]float64 // median giga-instructions/s per hardware thread
	// PkgW is the median RAPL package power — the paper notes (without
	// listing it) that it "indicates that both processors are limited
	// by their TDP for all frequency settings at or above 2.2 GHz".
	PkgW [2]float64
}

// Table4 reproduces Table IV: FIRESTARTER with Hyper-Threading under
// different frequency settings; 50 one-second samples, medians.
func Table4(o Options) ([]Table4Row, *report.Table, error) {
	spec := uarch.E52680v3()
	samples := o.count(50)
	sampleDur := o.dur(sim.Second)
	// The FIRESTARTER placement is identical for every setting: build it
	// once and fork per sweep point — bitwise-equal to the fresh platform
	// per setting the serial version built (identical thermal starting
	// state), minus the repeated construction.
	parent, err := o.newHSW()
	if err != nil {
		return nil, nil, err
	}
	for cpu := 0; cpu < parent.CPUs(); cpu++ {
		if err := parent.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			return nil, nil, err
		}
	}
	rows, err := forkMap(o, parent, sweepSettings(spec, 2100),
		func(sys *core.System, set uarch.MHz) (Table4Row, error) {
			sys.SetPStateAll(set)
			sys.Run(o.dur(2 * sim.Second)) // settle the TDP controller
			row := Table4Row{Setting: set}
			for sock := 0; sock < 2; sock++ {
				cpu := sock * spec.Cores // sample one core per processor
				fs := make([]float64, 0, samples)
				us := make([]float64, 0, samples)
				gs := make([]float64, 0, samples)
				ps := make([]float64, 0, samples)
				for i := 0; i < samples; i++ {
					ua := sys.Socket(sock).UncoreSnapshot()
					ra, err := sys.ReadRAPL(sock)
					if err != nil {
						return Table4Row{}, err
					}
					iv := sys.MeasureCore(cpu, sampleDur)
					ub := sys.Socket(sock).UncoreSnapshot()
					rb, err := sys.ReadRAPL(sock)
					if err != nil {
						return Table4Row{}, err
					}
					pkgW, _, err := sys.RAPLPowerW(ra, rb)
					if err != nil {
						return Table4Row{}, err
					}
					fs = append(fs, iv.FreqGHz())
					us = append(us, perfctr.UncoreFreqGHz(ua, ub))
					gs = append(gs, iv.GIPS()/2) // per hardware thread
					ps = append(ps, pkgW)
				}
				row.CoreGHz[sock] = stats.Median(fs)
				row.UncoreGHz[sock] = stats.Median(us)
				row.GIPSThread[sock] = stats.Median(gs)
				row.PkgW[sock] = stats.Median(ps)
			}
			return row, nil
		})
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Table IV: FIRESTARTER (HT enabled) under frequency settings; 50x1s medians",
		"Core frequency setting", "Core p0 [GHz]", "Core p1 [GHz]",
		"Uncore p0 [GHz]", "Uncore p1 [GHz]", "GIPS p0", "GIPS p1",
		"Pkg p0 [W]", "Pkg p1 [W]")
	for _, r := range rows {
		t.AddRow(settingLabel(spec, r.Setting),
			report.F("%.2f", r.CoreGHz[0]), report.F("%.2f", r.CoreGHz[1]),
			report.F("%.2f", r.UncoreGHz[0]), report.F("%.2f", r.UncoreGHz[1]),
			report.F("%.2f", r.GIPSThread[0]), report.F("%.2f", r.GIPSThread[1]),
			report.F("%.1f", r.PkgW[0]), report.F("%.1f", r.PkgW[1]))
	}
	return rows, t, nil
}

// Table5Cell is one measurement of the paper's Table V.
type Table5Cell struct {
	Workload string
	Setting  uarch.MHz
	EPB      pcu.EPB
	PowerW   float64 // highest 1-minute AC window
	FreqGHz  float64 // measured core frequency in that window
}

// Table5 reproduces Table V: maximum node power and sustained core
// frequency for FIRESTARTER, LINPACK and mprime across the 2.5 GHz and
// turbo settings and the three EPB classes, Hyper-Threading off.
func Table5(o Options) ([]Table5Cell, *report.Table, error) {
	kernels := []workload.Kernel{workload.Firestarter(), workload.Linpack(), workload.Mprime()}
	settings := []uarch.MHz{2500, 0 /* turbo, resolved per spec */}
	epbs := []pcu.EPB{pcu.EPBPowerSave, pcu.EPBBalanced, pcu.EPBPerformance}

	type job struct {
		k   workload.Kernel
		set uarch.MHz
		e   pcu.EPB
	}
	jobs := make([]job, 0, len(kernels)*len(settings)*len(epbs))
	for _, k := range kernels {
		for _, setRaw := range settings {
			for _, e := range epbs {
				jobs = append(jobs, job{k: k, set: setRaw, e: e})
			}
		}
	}
	cfg := core.DefaultConfig()
	cfg.HyperThreading = false // Table V: HT not active
	cfg.Seed = o.seed()
	parent, err := o.newSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	cells, err := forkMap(o, parent, jobs, func(sys *core.System, j job) (Table5Cell, error) {
		set := j.set
		if set == 0 {
			set = sys.Spec().TurboSettingMHz()
		}
		sys.SetEPB(j.e)
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			if err := sys.AssignKernel(cpu, j.k, 1); err != nil {
				return Table5Cell{}, err
			}
		}
		sys.SetPStateAll(set)
		settle := o.dur(3 * sim.Second)
		window := o.dur(60 * sim.Second) // paper: best 1-minute window
		sys.Run(settle)
		iv := sys.MeasureCore(0, window+o.dur(10*sim.Second))
		p := sys.Meter().MaxWindowAverage(window)
		return Table5Cell{
			Workload: j.k.Name(), Setting: set, EPB: j.e,
			PowerW: p, FreqGHz: iv.FreqGHz(),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	spec := uarch.E52680v3()
	t := report.NewTable("Table V: max 1-minute node power [W] and measured core frequency [GHz] (HT off)",
		"Workload", "Setting", "EPB", "Power [W]", "Frequency [GHz]")
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Workload != cells[j].Workload {
			return cells[i].Workload < cells[j].Workload
		}
		return cells[i].Setting < cells[j].Setting
	})
	for _, c := range cells {
		t.AddRow(c.Workload, settingLabel(spec, c.Setting), c.EPB.String(),
			report.F("%.1f", c.PowerW), report.F("%.2f", c.FreqGHz))
	}
	return cells, t, nil
}
