package exp

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/stats"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// AblationResult is a generic named-variant comparison.
type AblationResult struct {
	Name     string
	Variants []AblationVariant
}

// AblationVariant is one configuration's outcome.
type AblationVariant struct {
	Label   string
	Metrics map[string]float64
}

// Render prints the comparison table.
func (r *AblationResult) Render() string {
	keys := map[string]bool{}
	for _, v := range r.Variants {
		for k := range v.Metrics {
			keys[k] = true
		}
	}
	var cols []string
	for k := range keys {
		cols = append(cols, k)
	}
	sortStrings(cols)
	t := report.NewTable("Ablation: "+r.Name, append([]string{"variant"}, cols...)...)
	for _, v := range r.Variants {
		row := []string{v.Label}
		for _, k := range cols {
			row = append(row, report.F("%.3f", v.Metrics[k]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AblationPstateGrid compares p-state transition latencies with the
// Haswell-EP 500 us opportunity grid against pre-Haswell immediate
// transitions (the Section VI-A finding).
func AblationPstateGrid(o Options) (*AblationResult, error) {
	res := &AblationResult{Name: "p-state opportunity grid (500 us) vs immediate transitions"}
	// Each variant changes the platform spec, so there is no shared
	// parent to fork; the variants run concurrently as independent
	// builds (same numbers as the serial loop, in variant order).
	type gridVariant struct {
		label  string
		gridUS float64
	}
	variants := []gridVariant{
		{"grid 500us (Haswell-EP)", 500},
		{"immediate (pre-Haswell)", 0},
	}
	samples := o.count(200)
	out, err := parallelMap(o, variants, func(variant gridVariant) (AblationVariant, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		spec := *cfg.Spec
		spec.PStateGridPeriodUS = variant.gridUS
		if variant.gridUS == 0 {
			spec.PStateSwitchUS = 10
			cfg.GridJitter = 0
		}
		cfg.Spec = &spec
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return AblationVariant{}, err
		}
		if err := sys.AssignKernel(0, workload.BusyWait(), 1); err != nil {
			return AblationVariant{}, err
		}
		sys.SetPState(0, 1200)
		sys.Run(10 * sim.Millisecond)
		rng := sim.NewRNG(o.Seed + 77)
		lats := make([]float64, 0, samples)
		target := uarch.MHz(1300)
		for i := 0; i < samples; i++ {
			sys.Run(sim.Time(rng.Uniform(0.3, 1.5) * float64(sim.Millisecond)))
			if err := sys.SetPState(0, target); err != nil {
				return AblationVariant{}, err
			}
			sys.Run(1500 * sim.Microsecond)
			tr, ok := sys.Core(0).Domain().LastTransition()
			if !ok {
				return AblationVariant{}, fmt.Errorf("exp: lost transition")
			}
			lats = append(lats, tr.Latency().Micros())
			if target == 1300 {
				target = 1200
			} else {
				target = 1300
			}
		}
		lo, hi := stats.MinMax(lats)
		return AblationVariant{
			Label: variant.label,
			Metrics: map[string]float64{
				"mean_us":   stats.Mean(lats),
				"median_us": stats.Median(lats),
				"min_us":    lo,
				"max_us":    hi,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Variants = out
	return res, nil
}

// AblationUFS compares DRAM bandwidth at the lowest core clock under the
// three uncore policies: Haswell UFS, a fixed uncore (Westmere-like) and
// a core-coupled uncore (Sandy Bridge-like) on otherwise identical
// hardware — isolating the paper's Figure 7b conclusion.
func AblationUFS(o Options) (*AblationResult, error) {
	res := &AblationResult{Name: "uncore clock policy -> DRAM bandwidth at 1.2 GHz cores"}
	dur := o.dur(sim.Second)
	// Each policy is a different platform config, so the variants build
	// their own parent; the two frequency points within a variant fork
	// it. Variants run concurrently, results in variant order.
	type ufsVariant struct {
		label  string
		mutate func(*core.Config)
	}
	variants := []ufsVariant{
		{"UFS (Haswell-EP)", func(c *core.Config) {}},
		{"coupled (Sandy Bridge-like)", func(c *core.Config) {
			spec := *c.Spec
			spec.UncorePolicy = uarch.UncoreCoupled
			c.Spec = &spec
		}},
		{"fixed-max (Westmere-like)", func(c *core.Config) {
			c.UFSEnabled = false
		}},
	}
	out, err := parallelMap(o, variants, func(v ufsVariant) (AblationVariant, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		v.mutate(&cfg)
		parent, err := core.NewSystem(cfg)
		if err != nil {
			return AblationVariant{}, err
		}
		base, err := bwAt(parent, LevelDRAM, cfg.Spec.BaseMHz, dur)
		if err != nil {
			return AblationVariant{}, err
		}
		low, err := bwAt(parent, LevelDRAM, cfg.Spec.MinMHz, dur)
		if err != nil {
			return AblationVariant{}, err
		}
		return AblationVariant{
			Label: v.label,
			Metrics: map[string]float64{
				"bw_base_gbs": base,
				"bw_min_gbs":  low,
				"relative":    low / base,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Variants = out
	return res, nil
}

// AblationRAPLMode reruns the Figure 2 validation with the Haswell
// platform forced back to event-based RAPL modeling, quantifying how
// much of the accuracy gain comes from the measurement approach itself.
func AblationRAPLMode(o Options) (*AblationResult, error) {
	res := &AblationResult{Name: "RAPL measured (FIVR) vs modeled (event counters)"}
	for _, variant := range []struct {
		label string
		mode  uarch.RAPLMode
	}{
		{"measured (Haswell)", uarch.RAPLMeasured},
		{"modeled (pre-Haswell approach)", uarch.RAPLModeled},
	} {
		r, err := fig2WithMode(variant.mode, o)
		if err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, AblationVariant{
			Label: variant.label,
			Metrics: map[string]float64{
				"r2":             r.R2,
				"max_residual_w": r.MaxResidual,
				"bias_spread_w":  r.BiasSpread(),
			},
		})
	}
	return res, nil
}

// fig2WithMode runs a reduced Figure 2 sweep on the Haswell node with a
// forced RAPL mode.
func fig2WithMode(mode uarch.RAPLMode, o Options) (*Fig2Result, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed
	spec := *cfg.Spec
	spec.RAPLMode = mode
	cfg.Spec = &spec

	res := &Fig2Result{Arch: uarch.HaswellEP, PerWorkloadBias: map[string]float64{}}
	avgDur := o.dur(4 * sim.Second)
	// Same shape as Fig2 proper: one idle parent, a fork per
	// (kernel, concurrency) point, points run concurrently.
	parent, err := o.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	type job struct {
		k workload.Kernel
		n int
	}
	var jobs []job
	for _, k := range workload.Fig2Set() {
		counts := []int{1, 4, 12, 24}
		if k == nil {
			counts = []int{0}
		}
		for _, n := range counts {
			jobs = append(jobs, job{k: k, n: n})
		}
	}
	points, err := forkMap(o, parent, jobs, func(sys *core.System, j job) (Fig2Point, error) {
		for cpu := 0; cpu < j.n; cpu++ {
			if err := sys.AssignKernel(cpu, j.k, 2); err != nil {
				return Fig2Point{}, err
			}
		}
		sys.RequestTurbo()
		sys.Run(o.dur(sim.Second))
		start := sys.Now()
		before := make([]core.RAPLReading, sys.Sockets())
		for s := range before {
			r, err := sys.ReadRAPL(s)
			if err != nil {
				return Fig2Point{}, err
			}
			before[s] = r
		}
		sys.Run(avgDur)
		rapl := 0.0
		for s := range before {
			after, err := sys.ReadRAPL(s)
			if err != nil {
				return Fig2Point{}, err
			}
			p, d, err := sys.RAPLPowerW(before[s], after)
			if err != nil {
				return Fig2Point{}, err
			}
			rapl += p + d
		}
		return Fig2Point{
			Workload: workload.NameOf(j.k), Cores: j.n,
			ACW: sys.Meter().Average(start, sys.Now()), RAPLW: rapl,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	xs := make([]float64, len(res.Points))
	ys := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i], ys[i] = p.RAPLW, p.ACW
	}
	fit, err := stats.PolyFit(xs, ys, 2)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	res.R2 = stats.RSquared(fit, xs, ys)
	res.MaxResidual = stats.MaxAbsResidual(fit, xs, ys)
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, p := range res.Points {
		r := p.ACW - stats.PolyEval(fit, p.RAPLW)
		sums[p.Workload] += r
		counts[p.Workload]++
	}
	for w, s := range sums {
		res.PerWorkloadBias[w] = s / float64(counts[w])
	}
	return res, nil
}

// AblationEET measures energy-efficient turbo on a workload that
// alternates compute and stall phases at two rates: slow (EET reacts in
// time, saving energy) and at an unfavorable ~1 ms rate matching EET's
// polling period, where its stale decisions cost performance
// (Section II-E).
func AblationEET(o Options) (*AblationResult, error) {
	res := &AblationResult{Name: "energy-efficient turbo vs phase-change rate"}
	compute := workload.Profile{IPC1: 2.2, IPC2: 2.6, Activity: 0.85}
	stall := workload.Profile{IPC1: 2.0, IPC2: 2.4, Activity: 0.45, MemBytesPerInst: 8}
	// EET on/off is a platform-config difference: independent builds,
	// run concurrently, results in variant order.
	type eetVariant struct {
		label string
		eet   bool
		half  sim.Time
	}
	variants := []eetVariant{
		{"EET on, slow phases (50 ms)", true, 50 * sim.Millisecond},
		{"EET off, slow phases (50 ms)", false, 50 * sim.Millisecond},
		{"EET on, 1.5 ms phases (unfavorable)", true, 1500 * sim.Microsecond},
		{"EET off, 1.5 ms phases", false, 1500 * sim.Microsecond},
	}
	out, err := parallelMap(o, variants, func(variant eetVariant) (AblationVariant, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.EETEnabled = variant.eet
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return AblationVariant{}, err
		}
		k := &workload.Phased{Label: "phased", A: compute, B: stall, HalfPeriod: variant.half}
		if err := sys.AssignKernel(0, k, 1); err != nil {
			return AblationVariant{}, err
		}
		sys.RequestTurbo()
		sys.Run(o.dur(sim.Second))
		a, err := sys.ReadRAPL(0)
		if err != nil {
			return AblationVariant{}, err
		}
		iv := sys.MeasureCore(0, o.dur(4*sim.Second))
		b, err := sys.ReadRAPL(0)
		if err != nil {
			return AblationVariant{}, err
		}
		pkgW, _, err := sys.RAPLPowerW(a, b)
		if err != nil {
			return AblationVariant{}, err
		}
		gips := iv.GIPS()
		return AblationVariant{
			Label: variant.label,
			Metrics: map[string]float64{
				"gips":             gips,
				"pkg_w":            pkgW,
				"joules_per_ginst": pkgW / gips,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Variants = out
	return res, nil
}

// AblationBudget isolates the core/uncore TDP budget trading behind the
// Table IV crossover: with trading disabled, lowering the core setting
// below the sustainable point just leaves budget stranded.
func AblationBudget(o Options) (*AblationResult, error) {
	res := &AblationResult{Name: "TDP budget trading (core <-> uncore)"}
	type budgetVariant struct {
		label   string
		trading bool
	}
	variants := []budgetVariant{
		{"trading on (Haswell-EP)", true},
		{"trading off", false},
	}
	out, err := parallelMap(o, variants, func(variant budgetVariant) (AblationVariant, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = o.Seed
		cfg.BudgetTrading = variant.trading
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return AblationVariant{}, err
		}
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
				return AblationVariant{}, err
			}
		}
		sys.SetPStateAll(2200)
		sys.Run(o.dur(2 * sim.Second))
		ua := sys.Socket(0).UncoreSnapshot()
		iv := sys.MeasureCore(0, o.dur(2*sim.Second))
		ub := sys.Socket(0).UncoreSnapshot()
		return AblationVariant{
			Label: variant.label,
			Metrics: map[string]float64{
				"core_ghz":   iv.FreqGHz(),
				"uncore_ghz": perfctr.UncoreFreqGHz(ua, ub),
				"gips":       iv.GIPS() / 2,
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Variants = out
	return res, nil
}
