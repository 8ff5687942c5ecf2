// Package fleet forks thousands of varied nodes from one warmed parent
// platform and runs them to a horizon under a shared power policy — the
// "manufacturing variability at scale" scenario the paper closes on:
// under a package power bound, nominally identical processors sustain
// different frequencies, and in a bulk-synchronous fleet the slowest
// chip gates everyone (Rountree et al.; the paper's Section III
// measures the per-part spread on its own two test processors).
//
// The package is built for throughput in bounded memory: Sweep fans
// the node indices out across the process-wide compute-slot pool in
// batches of nodes (internal/slots), and each worker forks, runs,
// measures and releases one node at a time, so the fork free list
// recycles a handful of children across the whole fleet and the
// steady-state per-node step allocates nothing. The batch API (New,
// Step, Measure, Release) forks and prepares each node the same way,
// one core.System.Fork per node in one fan-out, but keeps every node
// alive between rounds; it is Sweep's differential reference. Both
// return one NodeResult per node; callers reduce them.
package fleet

import (
	"math"

	"hswsim/internal/core"
	"hswsim/internal/sim"
)

// Params is the manufacturing-variation model: the spread of the
// silicon lottery across chips of one production line. All sigmas are
// per-socket; a two-socket node draws two independent chips.
type Params struct {
	// LeakSigma is the lognormal sigma of the leakage multiplier.
	// Leakage is the classic wide-spread parameter — literature puts
	// same-bin leakage spread at tens of percent.
	LeakSigma float64
	// CeffSigma is the lognormal sigma of the dynamic-power
	// (effective-capacitance) multiplier.
	CeffSigma float64
	// VminSigmaV is the normal sigma, in volts, of the chip-wide
	// voltage offset (a part that needs more voltage for the same
	// frequency).
	VminSigmaV float64
}

// DefaultParams is a moderate Haswell-era spread: ~12% leakage sigma,
// ~5% dynamic sigma, ~15 mV voltage sigma.
func DefaultParams() Params {
	return Params{LeakSigma: 0.12, CeffSigma: 0.05, VminSigmaV: 0.015}
}

// withDefaults fills zero fields from DefaultParams. Negative values
// disable a term explicitly.
func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.LeakSigma == 0 {
		p.LeakSigma = d.LeakSigma
	}
	if p.CeffSigma == 0 {
		p.CeffSigma = d.CeffSigma
	}
	if p.VminSigmaV == 0 {
		p.VminSigmaV = d.VminSigmaV
	}
	return p
}

// lognormal maps a standard normal draw to a mean-1 lognormal
// multiplier: exp(sigma*z - sigma^2/2).
func lognormal(z, sigma float64) float64 {
	return math.Exp(sigma*z - sigma*sigma/2)
}

// Draw derives the variation overlay for one (node, socket) chip,
// purely from the fleet seed: the same (seed, node, socket, params)
// always yields the same chip, independent of draw order, fleet size
// or parallelism — the property the determinism tests pin down.
func Draw(seed uint64, node, socket int, p Params) core.ChipVariation {
	p = p.withDefaults()
	rng := sim.NewRNG(seed).Fork(uint64(node+1)*64 + uint64(socket))
	v := core.ChipVariation{LeakScale: 1, CeffScale: 1}
	// Fixed draw order; disabled terms still consume their draws so
	// enabling one term does not reshuffle the others.
	zl := rng.Normal(0, 1)
	zc := rng.Normal(0, 1)
	zv := rng.Normal(0, 1)
	if p.LeakSigma > 0 {
		v.LeakScale = lognormal(zl, p.LeakSigma)
	}
	if p.CeffSigma > 0 {
		v.CeffScale = lognormal(zc, p.CeffSigma)
	}
	if p.VminSigmaV > 0 {
		v.VminOffsetV = zv * p.VminSigmaV
	}
	return v
}
