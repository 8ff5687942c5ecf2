// Package exp implements the paper's experiments end to end: each
// function builds the appropriate simulated platform, runs the paper's
// measurement procedure (same workloads, sweeps, sample counts and
// statistics), and returns structured results plus a rendered
// table/figure. The cmd tools and the benchmark harness are thin
// wrappers around this package.
package exp

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"hswsim/internal/core"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// Options scales experiment effort. Scale multiplies every measurement
// duration and sample count: 1.0 reproduces the paper's procedure;
// smaller values trade precision for speed (tests and quick runs).
//
// Every field must stay flat and comparable (scalars, strings, nested
// value structs of the same): the rendered %#v of this struct is the
// result-cache and server-coalescing key (internal/expcache). A
// pointer, slice or map field would embed heap addresses and silently
// make cache keys nondeterministic — TestOptionsFlatForCacheKey in
// internal/expcache rejects such a field; read its comment before
// changing either side.
type Options struct {
	Scale float64
	// Seed seeds every platform and experiment RNG; 0 stands for the
	// suite seed, 0x5eed.
	Seed uint64

	// Fleet configures the fleet variation study. Zero values defer to
	// scale-derived sizing and Seed; only the fleet study reads it, so
	// only its cache key includes it (see ResolveOptions).
	Fleet FleetOptions

	// liveID is the experiment RunLive is running. RunLive sets it
	// after every cache and coalescing key has been taken, so it never
	// reaches a key; callers never set it. newSystem registers the
	// experiment's platforms with an installed Recorder under this id,
	// and profLabels labels CPU profile samples with it.
	liveID string
}

// profLabels returns the CPU profiler label context of the experiment
// o runs under: exp=<id> inside RunLive, no labels outside it.
func (o Options) profLabels() context.Context {
	ctx := context.Background()
	if o.liveID != "" {
		ctx = pprof.WithLabels(ctx, pprof.Labels("exp", o.liveID))
	}
	return ctx
}

// Validate checks the options domain. It is the one check the CLI, the
// server and RunLive share, so a hostile or mistyped value fails before
// any platform is built: the scale must be finite, the fleet ladder may
// reach at most the full-scale 4096 nodes, and the variation sigmas
// must be finite and at most 1. The node bound caps CPU, not memory:
// the study streams its nodes, one live node per worker, so its memory
// does not grow with the ladder, but its CPU grows with every node.
// Negative sigmas stay allowed: they are how a caller disables a term.
func (o Options) Validate() error {
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("scale %g is not finite", o.Scale)
	}
	if maxN := fleetSizes[len(fleetSizes)-1]; o.Fleet.Nodes < 0 || o.Fleet.Nodes > maxN {
		return fmt.Errorf("fleet nodes %d outside [0, %d]", o.Fleet.Nodes, maxN)
	}
	for _, sg := range []struct {
		name string
		v    float64
	}{
		{"leak sigma", o.Fleet.LeakSigma},
		{"ceff sigma", o.Fleet.CeffSigma},
		{"vmin sigma", o.Fleet.VminSigmaV},
	} {
		if math.IsNaN(sg.v) || math.IsInf(sg.v, 0) || sg.v > 1 {
			return fmt.Errorf("fleet %s %g must be finite and at most 1 (negative disables the term)", sg.name, sg.v)
		}
	}
	return nil
}

// suiteSeed is the seed of a flagless run.
const suiteSeed = 0x5eed

// Defaults returns full-fidelity options.
func Defaults() Options { return Options{Scale: 1.0, Seed: suiteSeed} }

// seed is the seed every platform config and experiment RNG draws
// from: Seed, with 0 standing for the suite seed, so a Seed of 0 and
// one of 0x5eed render the same bytes.
func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return suiteSeed
	}
	return o.Seed
}

// ResolveOptions reduces o to what experiment id reads, spelled one
// way: two option sets that render the same bytes for id resolve
// equal, so the result cache and hswsimd's coalescing key on it. Seed 0
// and Scale 0 resolve to what they stand for; the fleet study resolves
// its variation seed and node cap, every other experiment drops the
// fleet options, and tab1 and fig1, which read no options, resolve to
// none. FleetVariationStudy takes its seed and node cap from here.
func ResolveOptions(id string, o Options) Options {
	switch id {
	case "tab1", "fig1":
		return Options{}
	}
	r := Options{Scale: o.scale(), Seed: o.seed()}
	if id == "fleet" {
		r.Fleet = o.Fleet
		if r.Fleet.Nodes <= 0 {
			r.Fleet.Nodes = max(int(float64(fleetSizes[len(fleetSizes)-1])*r.Scale), 16)
		}
		if r.Fleet.Seed == 0 {
			r.Fleet.Seed = r.Seed
		}
	}
	return r
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// dur scales a duration.
func (o Options) dur(d sim.Time) sim.Time {
	t := sim.Time(float64(d) * o.scale())
	if t < sim.Millisecond {
		t = sim.Millisecond
	}
	return t
}

// count scales a sample count (minimum 3).
func (o Options) count(n int) int {
	c := int(float64(n) * o.scale())
	if c < 3 {
		c = 3
	}
	return c
}

// newHSW builds the paper's default dual-socket Haswell-EP node.
func (o Options) newHSW() (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed()
	return o.newSystem(cfg)
}

// settingLabel renders a frequency setting, using "Turbo" for the
// turbo pseudo p-state.
func settingLabel(spec *uarch.Spec, f uarch.MHz) string {
	if f > spec.BaseMHz {
		return "Turbo"
	}
	return fmt.Sprintf("%.1f", f.GHz())
}

// sweepSettings returns the paper's Table III/IV setting order: turbo
// first, then base downwards to lowest.
func sweepSettings(spec *uarch.Spec, lowest uarch.MHz) []uarch.MHz {
	out := []uarch.MHz{spec.TurboSettingMHz()}
	for f := spec.BaseMHz; f >= lowest; f -= spec.PStateStep {
		out = append(out, f)
	}
	return out
}
