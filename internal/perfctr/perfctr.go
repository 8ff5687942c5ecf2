// Package perfctr models the hardware performance counters the paper's
// measurement tools read via LIKWID and perf_events: per-core fixed
// counters (TSC, APERF/MPERF, retired instructions, stall cycles) and
// the uncore UBOX fixed counter (UNCORE_CLOCK:UBOXFIX) used to observe
// the uncore frequency.
//
// Counters are advanced by the simulation core with exact cycle
// arithmetic; tools take snapshots and derive frequencies and rates the
// same way the paper does (e.g. a 20 us busy-wait cycle count to verify
// an actual frequency switch, or 50 one-second samples whose median
// becomes a Table IV row).
package perfctr

import (
	"hswsim/internal/sim"
)

// Core holds one logical core's C0 counters. Counts are exact (float64
// accumulation of fractional cycles, exposed as integers). The TSC is
// not among them: it is invariant and ticks identically on every core
// of a node, so its owner (core.System) keeps one count for the node
// and hands it to Snapshot.
type Core struct {
	aperf        float64
	mperf        float64
	instructions float64
	stallCycles  float64
}

// Advance accumulates sec seconds of execution in C0 (the caller
// converts a segment's duration once for all its cores): coreGHz is the
// actual clock, tscGHz the invariant TSC rate, instPerSec the
// retirement rate, stallFrac the fraction of cycles stalled. A core
// outside C0 does not call it: none of these counters moves while it
// sleeps.
func (c *Core) Advance(sec, coreGHz, tscGHz, instPerSec, stallFrac float64) {
	// APERF counts actual cycles, MPERF counts at the TSC rate — both
	// only while in C0 (their ratio is the average frequency).
	c.aperf += coreGHz * 1e9 * sec
	c.mperf += tscGHz * 1e9 * sec
	c.instructions += instPerSec * sec
	c.stallCycles += coreGHz * 1e9 * sec * stallFrac
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	At           sim.Time
	TSC          uint64
	APERF        uint64
	MPERF        uint64
	Instructions uint64
	StallCycles  uint64
}

// Snapshot captures the counter values at the given virtual time; tsc
// is the node's TSC count at that time.
func (c *Core) Snapshot(at sim.Time, tsc float64) Snapshot {
	return Snapshot{
		At:           at,
		TSC:          uint64(tsc),
		APERF:        uint64(c.aperf),
		MPERF:        uint64(c.mperf),
		Instructions: uint64(c.instructions),
		StallCycles:  uint64(c.stallCycles),
	}
}

// Interval is the difference of two snapshots.
type Interval struct {
	Dt           sim.Time
	Cycles       uint64 // APERF delta
	RefCycles    uint64 // MPERF delta
	Instructions uint64
	StallCycles  uint64
}

// Delta computes b - a. Snapshots must be ordered.
func Delta(a, b Snapshot) Interval {
	return Interval{
		Dt:           b.At - a.At,
		Cycles:       b.APERF - a.APERF,
		RefCycles:    b.MPERF - a.MPERF,
		Instructions: b.Instructions - a.Instructions,
		StallCycles:  b.StallCycles - a.StallCycles,
	}
}

// FreqGHz returns the average running frequency over the interval
// (APERF/wall time) — what "measured core frequency" means in
// Tables IV/V.
func (iv Interval) FreqGHz() float64 {
	if iv.Dt <= 0 {
		return 0
	}
	return float64(iv.Cycles) / iv.Dt.Seconds() / 1e9
}

// EffectiveFreqGHz returns APERF/MPERF * tscGHz: the C0-weighted
// frequency perf reports.
func (iv Interval) EffectiveFreqGHz(tscGHz float64) float64 {
	if iv.RefCycles == 0 {
		return 0
	}
	return float64(iv.Cycles) / float64(iv.RefCycles) * tscGHz
}

// GIPS returns giga-instructions per second over the interval.
func (iv Interval) GIPS() float64 {
	if iv.Dt <= 0 {
		return 0
	}
	return float64(iv.Instructions) / iv.Dt.Seconds() / 1e9
}

// IPC returns instructions per actual core cycle.
func (iv Interval) IPC() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.Instructions) / float64(iv.Cycles)
}

// StallFrac returns the stalled share of core cycles.
func (iv Interval) StallFrac() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.StallCycles) / float64(iv.Cycles)
}

// Uncore holds one package's uncore fixed counter.
type Uncore struct {
	clock float64
}

// Advance accumulates uncore cycles over sec seconds (a halted uncore
// contributes none).
func (u *Uncore) Advance(sec, uncoreGHz float64) {
	if uncoreGHz > 0 {
		u.clock += uncoreGHz * 1e9 * sec
	}
}

// UncoreSnapshot is a point-in-time uncore clock reading.
type UncoreSnapshot struct {
	At    sim.Time
	Clock uint64
}

// Snapshot captures the UBOXFIX counter.
func (u *Uncore) Snapshot(at sim.Time) UncoreSnapshot {
	return UncoreSnapshot{At: at, Clock: uint64(u.clock)}
}

// UncoreFreqGHz derives the average uncore frequency between snapshots —
// the paper's UNCORE_CLOCK:UBOXFIX measurement.
func UncoreFreqGHz(a, b UncoreSnapshot) float64 {
	dt := b.At - a.At
	if dt <= 0 {
		return 0
	}
	return float64(b.Clock-a.Clock) / dt.Seconds() / 1e9
}
