// Package governor implements software energy-management policies on top
// of the simulated platform: classic cpufreq-style DVFS governors and a
// dynamic concurrency throttling (DCT) optimizer.
//
// These are the "energy efficiency optimization strategies such as DVFS
// and DCT" whose viability the paper evaluates: its conclusions — slow
// p-state transitions hurting DVFS in dynamic scenarios, DRAM bandwidth
// independence from the core clock making DVFS/DCT attractive for
// memory-bound codes — are directly observable through these policies.
package governor

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/perfctr"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
)

// Governor decides a per-CPU p-state from observed execution.
type Governor interface {
	Name() string
	// Decide returns the next p-state request for a CPU given the last
	// sampling interval. Returning 0 keeps the current setting.
	Decide(cpu int, iv perfctr.Interval, cur uarch.MHz, spec *uarch.Spec) uarch.MHz
}

// Performance always requests turbo.
type Performance struct{}

func (Performance) Name() string { return "performance" }
func (Performance) Decide(_ int, _ perfctr.Interval, _ uarch.MHz, spec *uarch.Spec) uarch.MHz {
	return spec.TurboSettingMHz()
}

// Powersave always requests the lowest p-state.
type Powersave struct{}

func (Powersave) Name() string { return "powersave" }
func (Powersave) Decide(_ int, _ perfctr.Interval, _ uarch.MHz, spec *uarch.Spec) uarch.MHz {
	return spec.MinMHz
}

// OnDemand jumps to turbo above a utilization threshold and relaxes to
// the minimum otherwise (the classic Linux ondemand shape). Utilization
// is approximated by C0 residency (MPERF delta over wall time).
type OnDemand struct{}

// onDemandUp is the utilization at and above which OnDemand picks turbo.
const onDemandUp = 0.95

func (OnDemand) Name() string { return "ondemand" }

func (OnDemand) Decide(_ int, iv perfctr.Interval, _ uarch.MHz, spec *uarch.Spec) uarch.MHz {
	util := c0Residency(iv, spec)
	if util >= onDemandUp {
		return spec.TurboSettingMHz()
	}
	// Scale proportionally below the threshold.
	span := float64(spec.BaseMHz - spec.MinMHz)
	f := spec.MinMHz + uarch.MHz(util/onDemandUp*span)
	return quantize(f, spec)
}

// Conservative moves one p-state step at a time based on utilization
// bands — slower to react, cheaper per transition.
type Conservative struct{}

// The utilization bands of Conservative: step up at and above
// conservativeUp, down at and below conservativeDown.
const (
	conservativeUp   = 0.80
	conservativeDown = 0.40
)

func (Conservative) Name() string { return "conservative" }

func (Conservative) Decide(_ int, iv perfctr.Interval, cur uarch.MHz, spec *uarch.Spec) uarch.MHz {
	util := c0Residency(iv, spec)
	switch {
	case util >= conservativeUp:
		next := cur + spec.PStateStep
		if next > spec.BaseMHz {
			return spec.TurboSettingMHz()
		}
		return next
	case util <= conservativeDown:
		next := cur - spec.PStateStep
		if next < spec.MinMHz {
			return spec.MinMHz
		}
		return next
	default:
		return 0
	}
}

// MemoryAware drops the core clock when the workload is memory-stalled —
// exploiting the paper's key Haswell-EP result that DRAM bandwidth at
// full concurrency no longer depends on the core frequency (Fig 7b), so
// memory-bound phases can run at low p-states for free.
type MemoryAware struct{}

// memoryAwareStall is the stall fraction at and above which MemoryAware
// drops to the minimum clock.
const memoryAwareStall = 0.4

func (MemoryAware) Name() string { return "memory-aware" }

func (MemoryAware) Decide(_ int, iv perfctr.Interval, cur uarch.MHz, spec *uarch.Spec) uarch.MHz {
	if iv.StallFrac() >= memoryAwareStall {
		return spec.MinMHz
	}
	return spec.TurboSettingMHz()
}

func c0Residency(iv perfctr.Interval, spec *uarch.Spec) float64 {
	if iv.Dt <= 0 {
		return 0
	}
	wall := spec.BaseMHz.GHz() * 1e9 * iv.Dt.Seconds()
	if wall <= 0 {
		return 0
	}
	u := float64(iv.RefCycles) / wall
	if u > 1 {
		u = 1
	}
	return u
}

func quantize(f uarch.MHz, spec *uarch.Spec) uarch.MHz {
	q := spec.MinMHz + (f-spec.MinMHz)/spec.PStateStep*spec.PStateStep
	if q < spec.MinMHz {
		q = spec.MinMHz
	}
	if q > spec.BaseMHz {
		q = spec.BaseMHz
	}
	return q
}

// Runner samples the platform periodically and applies a governor to a
// CPU set.
type Runner struct {
	sys    *core.System
	gov    Governor
	cpus   []int
	period sim.Time
	// last and decision are indexed parallel to cpus (the sampling loop
	// is a hot path under short periods; slices keep it map-free).
	last     []perfctr.Snapshot
	decision []uarch.MHz
	stop     func()
	// Transitions counts the p-state requests the governor issued.
	Transitions int
}

// NewRunner attaches a governor to the given CPUs with the given
// sampling period (e.g. 10 ms for ondemand).
func NewRunner(sys *core.System, gov Governor, cpus []int, period sim.Time) *Runner {
	if period <= 0 {
		period = 10 * sim.Millisecond
	}
	r := &Runner{
		sys: sys, gov: gov, cpus: cpus, period: period,
		last:     make([]perfctr.Snapshot, len(cpus)),
		decision: make([]uarch.MHz, len(cpus)),
	}
	return r
}

// Start arms the sampling loop.
func (r *Runner) Start() {
	for i, cpu := range r.cpus {
		r.last[i] = r.sys.Core(cpu).Snapshot()
	}
	if tr := r.sys.Trace(); tr != nil {
		tr.Begin(r.sys.Now(), trace.SpanGovernor, -1, r.epochCPU(), r.gov.Name())
	}
	r.stop = r.sys.Engine.Every(r.sys.Now()+r.period, r.period, func(now sim.Time) {
		r.step()
	})
}

// Stop detaches the governor.
func (r *Runner) Stop() {
	if r.stop != nil {
		if tr := r.sys.Trace(); tr != nil {
			tr.End(r.sys.Now(), trace.SpanGovernor, -1, r.epochCPU())
		}
		r.stop()
		r.stop = nil
	}
}

// epochCPU keys the governor's epoch spans: the first governed CPU (-1
// when the runner governs nothing), so several runners on one platform
// trace independent episodes.
func (r *Runner) epochCPU() int {
	if len(r.cpus) == 0 {
		return -1
	}
	return r.cpus[0]
}

func (r *Runner) step() {
	// Each sample closes the previous governor epoch and opens the next
	// one — one span per sampling interval.
	if tr := r.sys.Trace(); tr != nil {
		tr.Begin(r.sys.Now(), trace.SpanGovernor, -1, r.epochCPU(), r.gov.Name())
	}
	spec := r.sys.Spec()
	for i, cpu := range r.cpus {
		snap := r.sys.Core(cpu).Snapshot()
		iv := perfctr.Delta(r.last[i], snap)
		r.last[i] = snap
		cur := r.decision[i]
		if cur == 0 {
			cur = spec.BaseMHz
		}
		next := r.gov.Decide(cpu, iv, cur, spec)
		if next != 0 && next != cur {
			if err := r.sys.SetPState(cpu, next); err == nil {
				r.decision[i] = next
				r.Transitions++
			}
		}
	}
}

func (r *Runner) String() string {
	return fmt.Sprintf("governor %s over %d cpus, period %v", r.gov.Name(), len(r.cpus), r.period)
}
