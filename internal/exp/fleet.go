package exp

// The fleet variation study scales the paper's closing observation —
// manufacturing variability turns a fleet-wide power bound into a
// performance imbalance — from the paper's two processors to thousands
// of simulated nodes (the Rountree et al. scenario the paper cites).

import (
	"hswsim/internal/core"
	"hswsim/internal/fleet"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/stats"
	"hswsim/internal/workload"
)

// FleetOptions overrides the fleet study's configuration.
type FleetOptions struct {
	// Nodes caps the fleet-size ladder (0 = derived from Scale, up to
	// 4096 at full scale).
	Nodes int
	// Seed overrides the variation seed (0 = Options.Seed).
	Seed uint64
	// Variation sigmas; 0 = fleet.DefaultParams, negative disables a
	// term.
	LeakSigma  float64
	CeffSigma  float64
	VminSigmaV float64
}

// fleetCapW is the per-socket package power limit the fleet runs
// under: a binding cap for FIRESTARTER (see PowerCapStudy), so chip
// variation surfaces as frequency spread.
const fleetCapW = 85

// fleetSizes is the full-scale fleet-size ladder.
var fleetSizes = []int{16, 64, 256, 1024, 4096}

// FleetPoint is one fleet size's spread/tail summary.
type FleetPoint struct {
	Nodes     int
	MeanGHz   float64
	MinGHz    float64
	SpreadPct float64 // (max-min)/mean node frequency
	P99Slow   float64 // median/p1 node frequency: tail slowdown p99 absorbs
	TailSlow  float64 // median/min: what a bulk-synchronous fleet pays
	MeanW     float64
	MaxW      float64
}

// fleetLadder derives the fleet sizes to run: the standard ladder
// capped at maxN, always ending exactly at maxN.
func fleetLadder(maxN int) []int {
	var out []int
	for _, n := range fleetSizes {
		if n >= maxN {
			break
		}
		out = append(out, n)
	}
	return append(out, maxN)
}

// fleetStep and fleetWindow are each node's settling run, which lets
// its PCU clamp to the cap, and its measurement window, at full scale.
const (
	fleetStep   = 10 * sim.Millisecond
	fleetWindow = 20 * sim.Millisecond
)

// fleetSetup warms the fleet study's FIRESTARTER-at-turbo parent and
// returns it with the node configuration of the ladder's largest fleet
// and the ladder itself.
func fleetSetup(o Options) (*core.System, fleet.Config, []int, error) {
	parent, err := o.newHSW()
	if err != nil {
		return nil, fleet.Config{}, nil, err
	}
	for cpu := 0; cpu < parent.CPUs(); cpu++ {
		if err := parent.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			return nil, fleet.Config{}, nil, err
		}
	}
	parent.RequestTurbo()
	parent.Run(o.dur(50 * sim.Millisecond))

	f := ResolveOptions("fleet", o).Fleet
	ladder := fleetLadder(f.Nodes)
	cfg := fleet.Config{
		Nodes: ladder[len(ladder)-1],
		Seed:  f.Seed,
		Params: fleet.Params{
			LeakSigma:  f.LeakSigma,
			CeffSigma:  f.CeffSigma,
			VminSigmaV: f.VminSigmaV,
		},
		CapW:    fleetCapW,
		Workers: parallelWorkers,
	}
	return parent, cfg, ladder, nil
}

// FleetVariationStudy forks varied nodes from one warmed
// FIRESTARTER-at-turbo parent and measures, per fleet size, the
// frequency spread a shared package power cap induces — in particular
// the tail slowdown a bulk-synchronous application would observe when
// the slowest chip gates every rank. One fleet.Sweep runs the ladder's
// largest fleet, one node per worker from fork to release, and every
// ladder point of n nodes reduces the sweep's first n results: node i's
// result never depends on the fleet size, so that prefix is exactly
// what an n-node fleet measures.
func FleetVariationStudy(o Options) ([]FleetPoint, *report.Table, error) {
	parent, cfg, ladder, err := fleetSetup(o)
	if err != nil {
		return nil, nil, err
	}
	res, err := fleet.Sweep(parent, cfg, o.dur(fleetStep), o.dur(fleetWindow))
	if err != nil {
		return nil, nil, err
	}
	points := make([]FleetPoint, len(ladder))
	for i, n := range ladder {
		points[i] = fleetPoint(res[:n])
	}
	return points, fleetTable(points), nil
}

// fleetPoint reduces one fleet's node results, in node index order,
// through O(1) sketches: running mean/min/max and P² median and p1.
func fleetPoint(res []fleet.NodeResult) FleetPoint {
	var ghz, watts stats.Online
	med := stats.NewP2Quantile(0.5)
	p1 := stats.NewP2Quantile(0.01)
	for _, r := range res {
		ghz.Add(r.GHz)
		watts.Add(r.PkgW)
		med.Add(r.GHz)
		p1.Add(r.GHz)
	}
	p := FleetPoint{
		Nodes:   len(res),
		MeanGHz: ghz.Mean(),
		MinGHz:  ghz.Min(),
		MeanW:   watts.Mean(),
		MaxW:    watts.Max(),
	}
	if ghz.Mean() > 0 {
		p.SpreadPct = 100 * (ghz.Max() - ghz.Min()) / ghz.Mean()
	}
	if ghz.Min() > 0 {
		p.TailSlow = med.Value() / ghz.Min()
	}
	if v := p1.Value(); v > 0 {
		p.P99Slow = med.Value() / v
	}
	return p
}

// fleetTable renders the study's ladder points.
func fleetTable(points []FleetPoint) *report.Table {
	t := report.NewTable("Fleet variation: frequency spread and bulk-synchronous tail under an 85 W package cap",
		"Nodes", "Mean [GHz]", "Min [GHz]", "Spread [%]", "p99 slow [x]", "Tail slow [x]", "Mean pkg [W]", "Max pkg [W]")
	for _, p := range points {
		t.AddRow(report.F("%d", p.Nodes),
			report.F("%.3f", p.MeanGHz), report.F("%.3f", p.MinGHz),
			report.F("%.1f", p.SpreadPct),
			report.F("%.3f", p.P99Slow), report.F("%.3f", p.TailSlow),
			report.F("%.1f", p.MeanW), report.F("%.1f", p.MaxW))
	}
	return t
}
