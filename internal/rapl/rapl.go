// Package rapl implements the Running Average Power Limit energy
// accounting for both generations the paper compares:
//
//   - measured mode (Haswell-EP): the FIVRs sense actual current, so the
//     package counter tracks the true power model within a small gain
//     error — the Figure 2b "almost perfect correlation";
//   - modeled mode (Sandy Bridge-EP): energy is *estimated* from event
//     counts (active cycles, instructions, cache/memory traffic) with
//     weights that cannot see real switching activity, producing the
//     workload-dependent bias of Figure 2a.
//
// Counters follow the hardware interface: 32-bit wrapping registers in
// units of the MSR_RAPL_POWER_UNIT energy unit for the package domain
// and a fixed 15.3 uJ unit for the DRAM domain on Haswell-EP
// (Section IV) — reading DRAM energy with the package unit ("mode 0"
// semantics) inflates it roughly fourfold.
package rapl

import (
	"math"

	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// Domain accumulates energy for one RAPL power plane.
type Domain struct {
	UnitJoules float64
	joules     float64
}

// Add integrates watts over sec seconds.
func (d *Domain) Add(watts, sec float64) {
	d.joules += watts * sec
}

// EnergyJoules returns the exact accumulated energy.
func (d *Domain) EnergyJoules() float64 { return d.joules }

// Counter returns the 32-bit wrapping hardware counter value.
func (d *Domain) Counter() uint64 {
	if d.UnitJoules <= 0 {
		return 0
	}
	return uint64(d.joules/d.UnitJoules) & 0xFFFFFFFF
}

// CounterDelta returns the energy in joules between two counter
// readings, handling 32-bit wraparound (the reading discipline RAPL
// tools must implement).
func CounterDelta(prev, cur uint64, unitJoules float64) float64 {
	d := (cur - prev) & 0xFFFFFFFF
	return float64(d) * unitJoules
}

// ModelInputs are the event counts the pre-Haswell RAPL model consumes
// over an integration interval.
type ModelInputs struct {
	// ActiveVVF is the sum over C0 cores of V^2 * f(GHz) — the model's
	// proxy for clocking power, blind to actual data activity.
	ActiveVVF float64
	// GIPS is retired giga-instructions per second (all cores).
	GIPS float64
	// L3GBs / MemGBs are observed cache/memory bandwidths.
	L3GBs, MemGBs float64
	// UncoreVVF is V^2 * f for the uncore clock.
	UncoreVVF float64
}

// modelWeights are the Sandy Bridge estimation coefficients, calibrated
// against a scalar compute workload (so that workload sits on the line
// and everything else is biased).
type modelWeights struct {
	perCoreBase float64 // W per active core
	perVVF      float64 // W per V^2*GHz of active core clocking
	perGIPS     float64 // W per 1e9 instructions/s
	perL3GBs    float64
	perMemGBs   float64
	perUncVVF   float64
}

var snbWeights = modelWeights{
	perCoreBase: 0.8,
	perVVF:      0.9,
	perGIPS:     0.35,
	perL3GBs:    0.40,
	perMemGBs:   0.55,
	perUncVVF:   6.0,
}

// Package is one socket's RAPL implementation.
type Package struct {
	Mode uarch.RAPLMode
	Pkg  Domain
	DRAM Domain
	// PP0 is the core power plane domain — present on Sandy Bridge-EP,
	// not supported on Haswell-EP (Section IV).
	PP0 Domain
	// DRAMSupported mirrors the platform: absent domain reads #GP.
	DRAMSupported bool
	// PP0Supported mirrors the platform.
	PP0Supported bool
	// gain is the measured-mode sensing gain error (deterministic per
	// part, fraction of true power).
	gain float64
	// static is the modeled-mode constant term (package static power
	// estimate).
	static float64

	lastModeledW float64
}

// NewPackage builds the RAPL unit for a socket of the given spec.
// seedGain is the per-part gain error in (-0.01, 0.01).
func NewPackage(spec *uarch.Spec, seedGain float64) *Package {
	p := &Package{
		Mode:          spec.RAPLMode,
		DRAMSupported: spec.RAPLDRAMSupported,
		PP0Supported:  spec.PP0Supported,
		gain:          1 + seedGain,
		static:        spec.Power.PkgStatic,
	}
	p.Pkg.UnitJoules = msr.EnergyUnitJoules(msr.PowerUnitValue(3, 14, 10))
	p.PP0.UnitJoules = p.Pkg.UnitJoules
	p.DRAM.UnitJoules = msr.DRAMEnergyUnitJoulesHaswellEP
	return p
}

// Integrate advances the counters over sec seconds.
// truePkgW/truePP0W/trueDRAMW come from the physical power model (PP0 =
// core plane: dynamic + leakage); ev carries the event counts the
// modeled variant estimates from.
func (p *Package) Integrate(truePkgW, truePP0W, trueDRAMW float64, ev ModelInputs, sec float64) {
	switch p.Mode {
	case uarch.RAPLMeasured:
		p.Pkg.Add(truePkgW*p.gain, sec)
		p.DRAM.Add(trueDRAMW*p.gain, sec)
		p.PP0.Add(truePP0W*p.gain, sec)
	default:
		est := p.Estimate(ev)
		p.lastModeledW = est
		p.Pkg.Add(est, sec)
		// Pre-Haswell core-plane and DRAM estimates are event-based too.
		p.PP0.Add(est-p.static-snbWeights.perUncVVF*ev.UncoreVVF, sec)
		p.DRAM.Add(4.0+0.45*ev.MemGBs, sec)
	}
}

// Estimate returns the event-based power estimate (the modeled RAPL
// value) for the given inputs. The active core count is itself
// approximated from the clocking proxy — one more place the model
// diverges from physical truth.
func (p *Package) Estimate(ev ModelInputs) float64 {
	w := snbWeights
	return p.static +
		w.perCoreBase*approxActiveCores(ev) +
		w.perVVF*ev.ActiveVVF +
		w.perGIPS*ev.GIPS +
		w.perL3GBs*ev.L3GBs +
		w.perMemGBs*ev.MemGBs +
		w.perUncVVF*ev.UncoreVVF
}

// approxActiveCores estimates the active core count from the VVF proxy
// assuming a mid-range operating point.
func approxActiveCores(ev ModelInputs) float64 {
	if ev.ActiveVVF <= 0 {
		return 0
	}
	const vvfMid = 3.0 // V^2*f at a typical 2.6 GHz point
	return math.Ceil(ev.ActiveVVF / vvfMid)
}

// LastModeledWatts returns the most recent modeled power estimate (for
// diagnostics); zero in measured mode.
func (p *Package) LastModeledWatts() float64 { return p.lastModeledW }

// PowerFromCounter converts a counter delta over an interval into watts
// using the given energy unit — the arithmetic every RAPL tool performs,
// and the place where the Haswell-EP DRAM unit confusion bites.
func PowerFromCounter(prev, cur uint64, unitJoules float64, dt sim.Time) float64 {
	if dt <= 0 {
		return 0
	}
	return CounterDelta(prev, cur, unitJoules) / dt.Seconds()
}
