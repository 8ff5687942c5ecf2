package exp

// The fleet variation study scales the paper's closing observation —
// manufacturing variability turns a fleet-wide power bound into a
// performance imbalance — from the paper's two processors to thousands
// of simulated nodes (the Rountree et al. scenario the paper cites).

import (
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

// FleetVariationStudy forks fleets of varied nodes from one warmed
// FIRESTARTER-at-turbo parent and measures, per fleet size, the
// frequency spread a shared package power cap induces — in particular
// the tail slowdown a bulk-synchronous application would observe when
// the slowest chip gates every rank. fleet.Measure returns one
// NodeResult per node (4096 at the largest point), which the study
// reduces through O(1) sketches.
func FleetVariationStudy(o Options) ([]FleetPoint, *report.Table, error) {
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
	parent.Run(o.dur(50 * sim.Millisecond))

	f := ResolveOptions("fleet", o).Fleet
	params := fleet.Params{
		LeakSigma:  f.LeakSigma,
		CeffSigma:  f.CeffSigma,
		VminSigmaV: f.VminSigmaV,
	}

	var points []FleetPoint
	for _, n := range fleetLadder(f.Nodes) {
		fl, err := fleet.New(parent, fleet.Config{
			Nodes: n, Seed: f.Seed, Params: params,
			CapW: fleetCapW, Workers: parallelWorkers,
		})
		if err != nil {
			return nil, nil, err
		}
		// Let every node's PCU clamp to the cap, then measure.
		fl.Step(o.dur(10 * sim.Millisecond))
		res := fl.Measure(0, o.dur(20*sim.Millisecond))
		fl.Release()

		var ghz, watts stats.Online
		med := stats.NewP2Quantile(0.5)
		p1 := stats.NewP2Quantile(0.01)
		for _, r := range res { // node index order: deterministic
			ghz.Add(r.GHz)
			watts.Add(r.PkgW)
			med.Add(r.GHz)
			p1.Add(r.GHz)
		}
		p := FleetPoint{
			Nodes:   n,
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
		points = append(points, p)
	}

	t := report.NewTable("Fleet variation: frequency spread and bulk-synchronous tail under an 85 W package cap",
		"Nodes", "Mean [GHz]", "Min [GHz]", "Spread [%]", "p99 slow [x]", "Tail slow [x]", "Mean pkg [W]", "Max pkg [W]")
	for _, p := range points {
		t.AddRow(report.F("%d", p.Nodes),
			report.F("%.3f", p.MeanGHz), report.F("%.3f", p.MinGHz),
			report.F("%.1f", p.SpreadPct),
			report.F("%.3f", p.P99Slow), report.F("%.3f", p.TailSlow),
			report.F("%.1f", p.MeanW), report.F("%.1f", p.MaxW))
	}
	return points, t, nil
}
