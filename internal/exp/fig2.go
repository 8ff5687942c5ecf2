package exp

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/stats"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Fig2Point is one 4-second average of reference AC power versus the
// summed RAPL package+DRAM reading of both sockets.
type Fig2Point struct {
	Workload string
	Cores    int // active cores across the node (0 = idle)
	ACW      float64
	RAPLW    float64
}

// Fig2Result is the RAPL validation experiment for one generation.
type Fig2Result struct {
	Arch   uarch.Generation
	Points []Fig2Point
	// Fit is AC = f(RAPL): degree-1 on Sandy Bridge (the paper's linear
	// fit), degree-2 on Haswell (the quadratic fit).
	Fit         []float64
	R2          float64
	MaxResidual float64
	// PerWorkloadBias is each workload's mean signed residual from the
	// common fit — the Figure 2a "bias towards certain workloads".
	PerWorkloadBias map[string]float64
}

// Fig2 reproduces Figure 2: microbenchmarks in different threading
// configurations, 4-second power averages, RAPL vs the LMG450 AC
// reference.
func Fig2(gen uarch.Generation, o Options) (*Fig2Result, error) {
	concurrencies := []int{1, 2, 4, 8, 12, 16, 24}
	switch gen {
	case uarch.HaswellEP:
		return fig2Sweep(core.DefaultConfig(), concurrencies, 2, o)
	case uarch.SandyBridgeEP:
		return fig2Sweep(core.SandyBridgeConfig(), concurrencies, 1, o)
	}
	return nil, fmt.Errorf("exp: Fig2 compares Haswell-EP and Sandy Bridge-EP, not %v", gen)
}

// fig2Sweep runs the Figure 2 sweep on cfg: every kernel at each
// concurrency the node holds (idle once), each point on its own fork of
// one shared idle parent platform, then fits AC = f(RAPL) with a
// polynomial of the given degree.
func fig2Sweep(cfg core.Config, concurrencies []int, degree int, o Options) (*Fig2Result, error) {
	cfg.Seed = o.seed()
	res := &Fig2Result{Arch: cfg.Spec.Generation, PerWorkloadBias: map[string]float64{}}
	avgDur := o.dur(4 * sim.Second) // paper: 4 s constant-load averages

	type job struct {
		k workload.Kernel
		n int
	}
	var jobs []job
	for _, k := range workload.Fig2Set() {
		counts := concurrencies
		if k == nil {
			counts = []int{0} // idle: one point
		}
		for _, n := range counts {
			if n <= cfg.Spec.Cores*cfg.Sockets {
				jobs = append(jobs, job{k: k, n: n})
			}
		}
	}
	parent, err := o.newSystem(cfg)
	if err != nil {
		return nil, err
	}
	points, err := forkMap(o, parent, jobs, func(sys *core.System, j job) (Fig2Point, error) {
		for cpu := 0; cpu < j.n; cpu++ {
			if err := sys.AssignKernel(cpu, j.k, 2); err != nil {
				return Fig2Point{}, err
			}
		}
		sys.RequestTurbo()
		sys.Run(o.dur(sim.Second)) // settle
		start := sys.Now()
		rapl, err := sys.RAPLTotalPowerW(avgDur)
		if err != nil {
			return Fig2Point{}, err
		}
		ac := sys.Meter().Average(start, sys.Now())
		return Fig2Point{Workload: workload.NameOf(j.k), Cores: j.n, ACW: ac, RAPLW: rapl}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points

	// Fit AC as a function of RAPL (the paper's Figure 2 relation).
	xs := make([]float64, len(res.Points))
	ys := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i], ys[i] = p.RAPLW, p.ACW
	}
	fit, err := stats.PolyFit(xs, ys, degree)
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	res.R2 = stats.RSquared(fit, xs, ys)
	res.MaxResidual = stats.MaxAbsResidual(fit, xs, ys)

	// Per-workload signed bias from the common fit.
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

// Render draws the scatter and summarizes the fit.
func (r *Fig2Result) Render() string {
	plot := &report.Plot{
		Title:  fmt.Sprintf("Figure 2: RAPL (pkg+DRAM, both sockets) vs AC reference — %v", r.Arch),
		XLabel: "LMG450 AC (W)",
		YLabel: "RAPL (W)",
	}
	byWorkload := map[string][][2]float64{}
	var order []string
	for _, p := range r.Points {
		if _, seen := byWorkload[p.Workload]; !seen {
			order = append(order, p.Workload)
		}
		byWorkload[p.Workload] = append(byWorkload[p.Workload], [2]float64{p.ACW, p.RAPLW})
	}
	for _, w := range order {
		pts := byWorkload[w]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		plot.Add(w, xs, ys)
	}
	out := plot.String()
	out += fmt.Sprintf("\nfit AC = %s, R^2 = %.5f, max |residual| = %.2f W\n",
		polyString(r.Fit), r.R2, r.MaxResidual)
	out += "per-workload bias from common fit (W):\n"
	for _, w := range order {
		out += fmt.Sprintf("  %-10s %+6.2f\n", w, r.PerWorkloadBias[w])
	}
	return out
}

func polyString(c []float64) string {
	switch len(c) {
	case 2:
		return fmt.Sprintf("%.1f + %.3f*P", c[0], c[1])
	case 3:
		return fmt.Sprintf("%.1f + %.3f*P + %.6f*P^2", c[0], c[1], c[2])
	default:
		return fmt.Sprintf("%v", c)
	}
}

// BiasSpread returns the gap between the most over- and under-estimated
// workloads (large on modeled RAPL, small on measured RAPL).
func (r *Fig2Result) BiasSpread() float64 {
	lo, hi := 0.0, 0.0
	first := true
	for _, b := range r.PerWorkloadBias {
		if first {
			lo, hi = b, b
			first = false
			continue
		}
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	return hi - lo
}
