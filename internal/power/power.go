// Package power implements the platform power model: per-core dynamic
// power from voltage, frequency and achieved execution activity; leakage
// with temperature feedback; uncore and DRAM power; package aggregation;
// and the node-level AC domain behind the paper's LMG450 reference meter
// (PSU losses, mainboard regulators, fans).
//
// The package power model is the physical ground truth of the
// simulation: Haswell's measured RAPL reads it (nearly) directly, the
// pre-Haswell modeled RAPL estimates it from event counts (and is
// biased), and the PCU's TDP enforcement reacts to it.
package power

import (
	"fmt"
	"math"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// CoreState is one core's instantaneous operating point for the power
// computation.
type CoreState struct {
	FreqGHz float64
	Volts   float64
	// Activity is the workload switching-activity factor (0 if idle).
	Activity float64
	// AVXFrac is the 256-bit operation fraction (extra current draw).
	AVXFrac float64
	// IPCShare is achieved IPC relative to the kernel's maximum: dynamic
	// power follows actual retirement throughput, so a memory-stalled or
	// single-threaded core burns less than a fully fed one.
	IPCShare float64
	CState   cstate.State
}

// Breakdown itemizes one package's power.
type Breakdown struct {
	CoresDynamic float64
	Leakage      float64
	Uncore       float64
	Static       float64
}

// Total returns the package (socket) power in watts.
func (b Breakdown) Total() float64 {
	return b.CoresDynamic + b.Leakage + b.Uncore + b.Static
}

func (b Breakdown) String() string {
	return fmt.Sprintf("pkg %.1f W (cores %.1f, leak %.1f, uncore %.1f, static %.1f)",
		b.Total(), b.CoresDynamic, b.Leakage, b.Uncore, b.Static)
}

// PackageModel computes and integrates one socket's power.
type PackageModel struct {
	PM *uarch.PowerModel
	// CeffScale models socket-to-socket silicon efficiency: >1 burns
	// more for the same work (the paper's processor 0 sustains lower
	// turbo than processor 1).
	CeffScale float64
	// LeakScale models chip-to-chip leakage spread (the dominant
	// manufacturing-variation term): >1 leaks more at the same voltage
	// and temperature. Zero is treated as the nominal 1 so struct-copied
	// and zero-valued models keep their pre-variation behaviour.
	LeakScale float64
	// AmbientC is the inlet temperature.
	AmbientC float64

	tempC float64 // current die temperature
}

// NewPackageModel builds the model with the die at ambient temperature.
func NewPackageModel(pm *uarch.PowerModel, ceffScale, ambientC float64) *PackageModel {
	if ceffScale <= 0 {
		ceffScale = 1
	}
	return &PackageModel{PM: pm, CeffScale: ceffScale, LeakScale: 1, AmbientC: ambientC, tempC: ambientC}
}

// TempC returns the present die temperature.
func (p *PackageModel) TempC() float64 { return p.tempC }

// effectiveActivity folds AVX current draw and achieved throughput into
// the raw activity factor.
func (p *PackageModel) effectiveActivity(c CoreState) float64 {
	boost := 1 + (p.PM.AVXActivityBoost-1)*min(1, 2*c.AVXFrac)
	share := c.IPCShare
	if share <= 0 {
		share = 1
	}
	return c.Activity * share * boost
}

// ComputeMemo caches the temperature-independent decomposition of one
// ComputeMemoized call so that steady-state integration segments can
// advance the breakdown without re-deriving the operating point
// (Replay). Only leakage depends on die temperature, so the memo keeps
// per-core leakage bases (everything but the temperature factor) in
// core order; Replay folds the current temperature back in with
// exactly the arithmetic ComputeMemoized would use, keeping replayed
// segments bit-for-bit identical to recomputed ones — the determinism
// contract of the change-driven integrator.
type ComputeMemo struct {
	coresDynamic float64
	uncore       float64
	static       float64
	// leakBase[i] is core i's leakage at tempFactor 1; leakScale[i] is
	// the c-state multiplier (1 for C0/C1, 0.3 for C3, 0 for C6).
	leakBase  []float64
	leakScale []float64
	// dyn[i] is core i's dynamic power contribution (0 unless C0) — the
	// exact addend folded into coresDynamic, kept per core so the energy
	// profiler can attribute it without re-deriving the operating point.
	dyn []float64
	// live lists, in core order, the cores with a nonzero leak scale:
	// the only terms Replay has to visit. A power-gated (C6) core adds
	// nothing to the leakage sum, so skipping it keeps the summation
	// order — and the result — bit-for-bit what visiting it would give.
	live []int
}

// Dyn returns core i's memoized dynamic power in watts.
func (m *ComputeMemo) Dyn(i int) float64 { return m.dyn[i] }

// LeakBase returns core i's memoized leakage at temperature factor 1.
func (m *ComputeMemo) LeakBase(i int) float64 { return m.leakBase[i] }

// LeakScale returns core i's memoized c-state leakage multiplier
// (1 for C0/C1, 0.3 for C3, 0 for C6).
func (m *ComputeMemo) LeakScale(i int) float64 { return m.leakScale[i] }

// Uncore returns the memoized uncore power in watts.
func (m *ComputeMemo) Uncore() float64 { return m.uncore }

// Static returns the memoized package static power in watts.
func (m *ComputeMemo) Static() float64 { return m.static }

// NumCores returns the number of per-core entries in the memo.
func (m *ComputeMemo) NumCores() int { return len(m.leakBase) }

// tempFactor returns the leakage temperature multiplier at the present
// die temperature.
func (p *PackageModel) tempFactor() float64 {
	tf := 1 + p.PM.LeakTempCoeff*(p.tempC-40)
	if tf < 0.5 {
		tf = 0.5
	}
	return tf
}

// TempFactor exposes the leakage temperature multiplier so the energy
// profiler can re-scale memoized leakage bases with exactly the
// arithmetic ComputeMemoized and Replay use.
func (p *PackageModel) TempFactor() float64 { return p.tempFactor() }

// ComputeMemoized returns the package power breakdown for the given
// core states and uncore operating point at the current die
// temperature, recording its temperature-independent parts into memo so
// later segments at the same operating point can be advanced with
// Replay. The memo's slices are reused across calls.
func (p *PackageModel) ComputeMemoized(memo *ComputeMemo, cores []CoreState, uncoreGHz, uncoreVolts float64) Breakdown {
	var b Breakdown
	tempFactor := p.tempFactor()
	if cap(memo.leakBase) < len(cores) {
		memo.leakBase = make([]float64, len(cores))
		memo.leakScale = make([]float64, len(cores))
		memo.dyn = make([]float64, len(cores))
		memo.live = make([]int, 0, len(cores))
	}
	memo.leakBase = memo.leakBase[:len(cores)]
	memo.leakScale = memo.leakScale[:len(cores)]
	memo.dyn = memo.dyn[:len(cores)]
	memo.live = memo.live[:0]
	memo.coresDynamic = 0
	// Cores at one operating point share Activity, IPCShare and AVXFrac,
	// so consecutive C0 cores reuse the left-associated
	// CeffCore·CeffScale·effectiveActivity prefix of the dynamic-power
	// product: the same operations on the same operands. NaN never
	// matches, so the first C0 core always computes it.
	keyAct, keyShare, keyAVX := math.NaN(), math.NaN(), math.NaN()
	prefix := 0.0
	for i, c := range cores {
		base, scale := 0.0, 0.0
		memo.dyn[i] = 0
		switch c.CState {
		case cstate.C0:
			if c.Activity != keyAct || c.IPCShare != keyShare || c.AVXFrac != keyAVX {
				keyAct, keyShare, keyAVX = c.Activity, c.IPCShare, c.AVXFrac
				prefix = p.PM.CeffCore * p.CeffScale * p.effectiveActivity(c)
			}
			d := prefix * c.Volts * c.Volts * c.FreqGHz
			b.CoresDynamic += d
			memo.dyn[i] = d
			base, scale = p.leakBase(c.Volts), 1
			b.Leakage += base * tempFactor
		case cstate.C1:
			// Clock-gated: no dynamic power, full leakage.
			base, scale = p.leakBase(c.Volts), 1
			b.Leakage += base * tempFactor
		case cstate.C3:
			// PLL off, caches flushed: reduced leakage.
			base, scale = p.leakBase(c.Volts), 0.3
			b.Leakage += 0.3 * (base * tempFactor)
		case cstate.C6:
			// Power-gated: nothing.
		}
		memo.leakBase[i] = base
		memo.leakScale[i] = scale
		if scale != 0 {
			memo.live = append(memo.live, i)
		}
	}
	if uncoreGHz > 0 {
		b.Uncore = p.PM.CeffUncore * p.CeffScale * uncoreVolts * uncoreVolts * uncoreGHz
	}
	b.Static = p.PM.PkgStatic
	memo.coresDynamic = b.CoresDynamic
	memo.uncore = b.Uncore
	memo.static = b.Static
	return b
}

// Replay returns the breakdown for the memoized operating point at the
// present die temperature, without touching per-core state: only the
// leakage terms of the cores that leak are re-scaled by the current
// temperature factor, so its cost follows the awake cores, not the die
// size. The result is bit-for-bit what ComputeMemoized would return for
// the same (unchanged) inputs.
func (p *PackageModel) Replay(memo *ComputeMemo) Breakdown {
	tempFactor := p.tempFactor()
	b := Breakdown{
		CoresDynamic: memo.coresDynamic,
		Uncore:       memo.uncore,
		Static:       memo.static,
	}
	for _, i := range memo.live {
		base := memo.leakBase[i]
		if memo.leakScale[i] == 1 {
			b.Leakage += base * tempFactor
		} else {
			b.Leakage += 0.3 * (base * tempFactor)
		}
	}
	return b
}

// leakBase is one core's leakage at temperature factor 1.
func (p *PackageModel) leakBase(volts float64) float64 {
	ls := p.LeakScale
	if ls == 0 {
		ls = 1
	}
	vr := volts / p.PM.VNom
	return p.PM.LeakPerCore * ls * vr * vr
}

// UpdateTemp advances the first-order thermal state for dt at the given
// package power (time constant ~2 s; the paper's measurements are long
// enough that steady state dominates).
func (p *PackageModel) UpdateTemp(watts float64, dt sim.Time) {
	steady := p.AmbientC + p.PM.ThermalResistance*watts
	const tauNS = 2e9
	alpha := float64(dt) / (float64(dt) + tauNS)
	p.tempC += (steady - p.tempC) * alpha
}

// NodeConfig describes the AC power domain of a complete compute node:
// everything between the wall socket and the RAPL domains.
type NodeConfig struct {
	Name string
	// FixedPlatformW covers fans, mainboard, storage, NICs — constant
	// during the paper's experiments (fans pinned at maximum).
	FixedPlatformW float64
	// ACQuad maps total DC draw to AC draw: AC = q0 + q1*DC + q2*DC^2
	// (PSU conversion losses grow superlinearly with load, which is why
	// the Figure 2b RAPL-vs-AC relation is quadratic).
	ACQuad [3]float64
}

// HaswellNode returns the paper's bullx R421 E4 node model with fans at
// maximum speed, calibrated against two anchor points: 261.5 W AC at
// idle with both packages in PC6 (RAPL domains ~28 W, Table II) and
// ~560 W under FIRESTARTER at dual TDP (RAPL ~258 W, Table V).
func HaswellNode() NodeConfig {
	return NodeConfig{
		Name:           "bullx R421 E4 (2x E5-2680 v3), fans at maximum",
		FixedPlatformW: 200,
		ACQuad:         [3]float64{-14.2, 1.1652, 0.000193},
	}
}

// SandyBridgeNode returns the earlier-generation comparison node (normal
// fan policy, smaller fixed floor) used for the Figure 2a data.
func SandyBridgeNode() NodeConfig {
	return NodeConfig{
		Name:           "2x E5-2670 node, normal fans",
		FixedPlatformW: 70,
		ACQuad:         [3]float64{5, 1.08, 0.0002},
	}
}

// ACWatts converts the summed RAPL-domain DC power into wall power.
func (n NodeConfig) ACWatts(raplDomainsW float64) float64 {
	dc := raplDomainsW + n.FixedPlatformW
	return n.ACQuad[0] + n.ACQuad[1]*dc + n.ACQuad[2]*dc*dc
}

// LMG450 models the ZES ZIMMER LMG450 4-channel power meter: 20 Sa/s AC
// power samples with 0.07 % + 0.23 W accuracy.
//
// The meter is a plain value with the noise stream held inline; ForkInto
// copies it for a forked platform.
type LMG450 struct {
	rng     sim.RNG
	samples []Sample
}

// Sample is one 50 ms meter reading.
type Sample struct {
	At sim.Time
	W  float64
}

// SamplePeriod is the LMG450 reporting interval (20 Sa/s).
const SamplePeriod = 50 * sim.Millisecond

// NewLMG450 returns a meter with a deterministic noise stream.
func NewLMG450(rng *sim.RNG) *LMG450 {
	return &LMG450{rng: *rng}
}

// ForkInto overwrites dst with a copy of the meter, reusing dst's sample
// storage: same recorded samples, noise stream continuing from the same
// position — so the copy and the original record identical readings
// for identical inputs.
func (m *LMG450) ForkInto(dst *LMG450) {
	dst.rng = m.rng
	dst.samples = append(dst.samples[:0], m.samples...)
}

// Record stores one reading of the true AC power, applying the meter's
// accuracy band.
func (m *LMG450) Record(at sim.Time, trueWatts float64) {
	noise := m.rng.Uniform(-1, 1) * (0.0007*trueWatts + 0.23)
	m.samples = append(m.samples, Sample{At: at, W: trueWatts + noise})
}

// Samples returns all recorded readings.
func (m *LMG450) Samples() []Sample { return m.samples }

// Average returns the mean power over [from, to).
func (m *LMG450) Average(from, to sim.Time) float64 {
	sum, n := 0.0, 0
	for _, s := range m.samples {
		if s.At >= from && s.At < to {
			sum += s.W
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxWindowAverage returns the highest mean power over any contiguous
// full-length window of the given duration — the paper's "1 minute
// interval with the highest average power consumption" extraction for
// Table V. Recordings shorter than the window fall back to the overall
// mean.
func (m *LMG450) MaxWindowAverage(window sim.Time) float64 {
	if len(m.samples) == 0 || window <= 0 {
		return 0
	}
	best := 0.0
	found := false
	j := 0
	sum := 0.0
	for i := range m.samples {
		sum += m.samples[i].W
		for m.samples[i].At-m.samples[j].At >= window {
			sum -= m.samples[j].W
			j++
		}
		// Only full windows count: anything shorter would let a single
		// hot sample at the start of the recording win.
		if m.samples[i].At-m.samples[j].At >= window-SamplePeriod {
			if avg := sum / float64(i-j+1); avg > best {
				best = avg
				found = true
			}
		}
	}
	if !found {
		return m.Average(m.samples[0].At, m.samples[len(m.samples)-1].At+1)
	}
	return best
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
