// Package fivr models the fully integrated voltage regulators that make
// Haswell the first x86 generation with per-core voltage domains
// (Section II-B), plus the mainboard voltage regulator (MBVR) that still
// feeds the package input rail (VCCin) under SVID control.
//
// Two experimentally relevant properties are carried here:
//
//   - the V/f operating curve each core's regulator follows, including
//     deterministic part-to-part variation ("the cores' voltages for a
//     given p-state differ on the two processors", Section III);
//   - the regulator switching time, which is the floor of every p-state
//     transition latency (the ~21 us minimum of Figure 3).
package fivr

import (
	"fmt"

	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// Regulator is one core's (or the uncore's) voltage domain. It is a
// plain value (the jitter stream is held inline), so a struct copy is a
// complete, independent clone — core.System.Fork embeds regulators by
// value and copies them wholesale.
type Regulator struct {
	spec *uarch.PowerModel
	// offset is this domain's part-to-part voltage offset in volts.
	offset float64
	// switching time jitter source
	rng sim.RNG
	// nominal switching time and jitter spread
	switchTime   sim.Time
	switchJitter sim.Time

	volts float64 // current output voltage
}

// NewRegulator builds a voltage domain. The offset models silicon
// variation: positive means this domain needs more voltage for the same
// frequency (less efficient part).
func NewRegulator(pm *uarch.PowerModel, offsetVolts float64, switchUS float64, rng *sim.RNG) *Regulator {
	r := &Regulator{
		spec:         pm,
		offset:       offsetVolts,
		rng:          *rng,
		switchTime:   sim.Time(switchUS * float64(sim.Microsecond)),
		switchJitter: sim.Time(switchUS * 0.2 * float64(sim.Microsecond)),
	}
	r.volts = r.VoltageFor(uarch.MHz(1200))
	return r
}

// VoltageFor returns the operating voltage this domain requires for the
// given frequency: the spec V/f line plus this part's offset, clamped to
// the rail limits.
func (r *Regulator) VoltageFor(f uarch.MHz) float64 {
	v := r.spec.VMin + r.spec.VSlopePerGHz*(f.GHz()-1.2) + r.offset
	if v < r.spec.VMin {
		v = r.spec.VMin
	}
	if v > r.spec.VMax {
		v = r.spec.VMax
	}
	return v
}

// Volts returns the present output voltage.
func (r *Regulator) Volts() float64 { return r.volts }

// SetFrequency moves the regulator to the operating point for f and
// returns the switching time (voltage ramp + PLL relock) the transition
// costs. The jitter is deterministic per regulator stream.
func (r *Regulator) SetFrequency(f uarch.MHz) sim.Time {
	r.volts = r.VoltageFor(f)
	return r.rng.Jitter(r.switchTime, r.switchJitter)
}

// Rebias shifts the domain's part-to-part offset by dv and re-derives
// the present output voltage for the operating frequency f, without
// consuming a jitter draw. Manufacturing-variation overlays
// (core.System.ApplyChipVariation) use it to re-seat a forked chip's
// V/f curve at a quiescent instant; the jitter stream stays aligned
// with the unvaried platform, so variation changes only physics, not
// event timing draws.
func (r *Regulator) Rebias(dv float64, f uarch.MHz) {
	r.offset += dv
	r.volts = r.VoltageFor(f)
}

// MBVRState is a mainboard regulator power state (Section II-B: "the
// MBVR supports three different power states which are activated by the
// processor according to the estimated power consumption").
type MBVRState int

const (
	MBVRLight MBVRState = iota // low-current, high-efficiency-at-idle mode
	MBVRNormal
	MBVRFull
)

func (s MBVRState) String() string {
	switch s {
	case MBVRLight:
		return "PS2 (light load)"
	case MBVRNormal:
		return "PS1 (normal)"
	case MBVRFull:
		return "PS0 (full current)"
	default:
		return fmt.Sprintf("MBVRState(%d)", int(s))
	}
}

// MBVR models the mainboard input regulator: three voltage lanes on
// Haswell-EP boards (VCCin, VCCD 01, VCCD 23) versus five on previous
// products, with SVID-selected input voltage and load-dependent
// conversion efficiency.
type MBVR struct {
	vccin     float64
	state     MBVRState
	lanes     int
	lightMaxW float64
	normMaxW  float64
}

// NewMBVR returns the Haswell-EP three-lane mainboard regulator.
func NewMBVR() *MBVR {
	return &MBVR{vccin: 1.8, state: MBVRNormal, lanes: 3, lightMaxW: 25, normMaxW: 90}
}

// Lanes returns the number of voltage lanes to the processor package.
func (m *MBVR) Lanes() int { return m.lanes }

// SetSVID is the processor's serial-VID request for a new input voltage.
func (m *MBVR) SetSVID(v float64) error {
	if v < 1.4 || v > 2.3 {
		return fmt.Errorf("fivr: SVID voltage %.2f V outside VCCin range", v)
	}
	m.vccin = v
	return nil
}

// VCCin returns the present input voltage.
func (m *MBVR) VCCin() float64 { return m.vccin }

// UpdateLoad picks the regulator power state from the processor's
// estimated power draw and returns it.
func (m *MBVR) UpdateLoad(watts float64) MBVRState {
	switch {
	case watts <= m.lightMaxW:
		m.state = MBVRLight
	case watts <= m.normMaxW:
		m.state = MBVRNormal
	default:
		m.state = MBVRFull
	}
	return m.state
}

// State returns the current power state.
func (m *MBVR) State() MBVRState { return m.state }

// Efficiency returns the conversion efficiency at the given load. The
// curve peaks in the normal band and falls off at the extremes; the
// power-state mechanism exists to flatten exactly this curve.
func (m *MBVR) Efficiency(watts float64) float64 {
	switch m.state {
	case MBVRLight:
		if watts < 1 {
			return 0.70
		}
		e := 0.70 + 0.01*watts
		if e > 0.90 {
			e = 0.90
		}
		return e
	case MBVRNormal:
		return 0.92
	default:
		e := 0.93 - 0.00008*watts
		if e < 0.85 {
			e = 0.85
		}
		return e
	}
}

// CoreOffsets derives deterministic per-core voltage offsets for a
// socket. Socket-level bias reproduces the paper's observation that the
// second processor's cores run at higher voltage on average; the
// per-core spread is silicon lottery.
func CoreOffsets(cores int, socket int, seed uint64) []float64 {
	rng := sim.NewRNG(seed).Fork(uint64(socket) + 1)
	offs := make([]float64, cores)
	socketBias := 0.0
	if socket == 1 {
		socketBias = 0.008 // second processor: higher voltage on average
	}
	for i := range offs {
		offs[i] = socketBias + rng.Normal(0, 0.004)
	}
	return offs
}
