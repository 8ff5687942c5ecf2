package exp

import (
	"fmt"

	"hswsim/internal/core"
	"hswsim/internal/cstate"
	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// CStatePoint is one wake-up latency measurement.
type CStatePoint struct {
	Arch      uarch.Generation
	Scenario  cstate.Scenario
	FreqGHz   float64
	LatencyUS float64
}

// CStateResult holds the Figure 5 (C3) or Figure 6 (C6) data: wake-up
// latency versus core frequency for the three scenarios, on Haswell-EP
// with the Sandy Bridge-EP baseline in grey.
type CStateResult struct {
	State  cstate.State
	Points []CStatePoint
}

// CStateLatencies reproduces Figures 5/6 for the given idle state.
func CStateLatencies(state cstate.State, o Options) (*CStateResult, error) {
	res := &CStateResult{State: state}
	for _, gen := range []uarch.Generation{uarch.HaswellEP, uarch.SandyBridgeEP} {
		var cfg core.Config
		if gen == uarch.HaswellEP {
			cfg = core.DefaultConfig()
		} else {
			cfg = core.SandyBridgeConfig()
		}
		cfg.Seed = o.seed()
		for _, sc := range []cstate.Scenario{cstate.Local, cstate.RemoteActive, cstate.RemoteIdle} {
			sys, err := o.newSystem(cfg)
			if err != nil {
				return nil, err
			}
			for f := cfg.Spec.MinMHz; f <= cfg.Spec.BaseMHz; f += cfg.Spec.PStateStep {
				lat, err := measureWake(sys, state, sc, f)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, CStatePoint{
					Arch: gen, Scenario: sc, FreqGHz: f.GHz(), LatencyUS: lat.Micros(),
				})
			}
		}
	}
	return res, nil
}

// measureWake performs one waker/wakee measurement in the given
// scenario at the given common core frequency.
func measureWake(sys *core.System, state cstate.State, sc cstate.Scenario, f uarch.MHz) (sim.Time, error) {
	waker := 0
	var wakee, third int
	switch sc {
	case cstate.Local:
		wakee, third = 1, -1
	case cstate.RemoteActive:
		// A third core keeps the wakee's package out of package sleep.
		wakee, third = sys.CPUs()-1, sys.CPUs()-2
	case cstate.RemoteIdle:
		wakee, third = sys.CPUs()-1, -1
	}

	// Quiesce everything.
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, nil, 1); err != nil {
			return 0, err
		}
	}
	sys.SetPStateAll(f)
	if err := sys.AssignKernel(waker, workload.BusyWait(), 1); err != nil {
		return 0, err
	}
	if third >= 0 {
		if err := sys.AssignKernel(third, workload.BusyWait(), 1); err != nil {
			return 0, err
		}
	}
	sys.Run(5 * sim.Millisecond) // apply p-states
	if err := sys.SleepCore(wakee, state); err != nil {
		return 0, err
	}

	if sc == cstate.RemoteIdle {
		// The paper's pattern: the system goes fully idle so the remote
		// package sinks into its package state; the waker self-wakes on
		// a timer and immediately signals the wakee.
		if err := sys.AssignKernel(waker, nil, 1); err != nil {
			return 0, err
		}
		sys.Run(10 * sim.Millisecond)
		if got := sys.Socket(sys.SocketOf(wakee)).PkgCState(); !cstate.UncoreHalted(got) {
			return 0, fmt.Errorf("exp: wakee package in %v, expected deep sleep", got)
		}
		if err := sys.AssignKernel(waker, workload.BusyWait(), 1); err != nil {
			return 0, err
		}
	} else {
		sys.Run(2 * sim.Millisecond)
	}

	res, err := sys.WakeCore(waker, wakee, workload.BusyWait())
	if err != nil {
		return 0, err
	}
	if res.Scenario != sc {
		return 0, fmt.Errorf("exp: got scenario %v, wanted %v", res.Scenario, sc)
	}
	sys.Run(sim.Millisecond)
	return res.Latency, nil
}

// Series extracts one (arch, scenario) latency-vs-frequency series.
func (r *CStateResult) Series(gen uarch.Generation, sc cstate.Scenario) (freqs, lats []float64) {
	for _, p := range r.Points {
		if p.Arch == gen && p.Scenario == sc {
			freqs = append(freqs, p.FreqGHz)
			lats = append(lats, p.LatencyUS)
		}
	}
	return freqs, lats
}

// Render draws the three scenario panels.
func (r *CStateResult) Render() string {
	fig := "Figure 5"
	if r.State == cstate.C6 {
		fig = "Figure 6"
	}
	out := fmt.Sprintf("%s: %v wake-up latencies vs core frequency (ACPI table: %v)\n\n",
		fig, r.State, cstate.ACPITableLatency(r.State))
	for _, sc := range []cstate.Scenario{cstate.Local, cstate.RemoteActive, cstate.RemoteIdle} {
		p := &report.Plot{
			Title:  fmt.Sprintf("(%s)", sc),
			XLabel: "core frequency (GHz)",
			YLabel: "wake latency (us)",
			H:      12,
		}
		fx, fy := r.Series(uarch.HaswellEP, sc)
		p.Add("Haswell-EP", fx, fy)
		sx, sy := r.Series(uarch.SandyBridgeEP, sc)
		p.Add("Sandy Bridge-EP", sx, sy)
		out += p.String() + "\n"
	}
	return out
}
