package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"hswsim/internal/cache"
	"hswsim/internal/core"
	"hswsim/internal/cstate"
	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/fleet"
	"hswsim/internal/pcu"
	"hswsim/internal/power"
	"hswsim/internal/ring"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	kern "hswsim/internal/workload"
)

// The probes time calls into single layers from outside, on the inputs
// the suite actually feeds them: the Table V platform (HT off, turbo
// requested, every core loaded) and mprime/LINPACK profiles sampled on
// the 500 µs PCU grid, where the phase-varying kernels do most of the
// suite's work.

// sink keeps probed results live so the compiler cannot drop the calls.
var sink float64

// perOp returns the median host nanoseconds of one fn call over five
// batches, each calibrated to last at least minBatch.
func perOp(minBatch time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= minBatch || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = min(100, max(2, 1.2*float64(minBatch)/float64(d)))
		}
		n = int(float64(n) * grow)
	}
	samples := make([]float64, 5)
	for i := range samples {
		t0 := time.Now()
		fn(n)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(samples)
}

// tableVSystem builds the Table V platform with k on every core (nil
// leaves it idle) and lets the turbo request settle.
func tableVSystem(k kern.Kernel) (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.HyperThreading = false
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if k != nil {
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			if err := sys.AssignKernel(cpu, k, 1); err != nil {
				return nil, err
			}
		}
	}
	sys.RequestTurbo()
	sys.Run(20 * sim.Millisecond)
	return sys, nil
}

// gridLoads samples the suite's phase-varying profiles on the PCU grid:
// points sets of one socket's cores, mprime and LINPACK alternating
// across cores, each core offset in phase.
func gridLoads(spec *uarch.Spec, points int) [][]cache.CoreLoad {
	kernels := []kern.Kernel{kern.Mprime(), kern.Linpack()}
	sets := make([][]cache.CoreLoad, points)
	for g := range sets {
		t := sim.Time(g) * 500 * sim.Microsecond
		loads := make([]cache.CoreLoad, spec.Cores)
		for c := range loads {
			loads[c] = cache.CoreLoad{CoreID: c, FreqGHz: 2.3, Threads: 1,
				Prof: kernels[c%2].ProfileAt(t + sim.Time(c)*37*sim.Millisecond)}
		}
		sets[g] = loads
	}
	return sets
}

// volts follows the power model's voltage curve.
func volts(pm *uarch.PowerModel, spec *uarch.Spec, ghz float64) float64 {
	return min(pm.VMax, pm.VMin+pm.VSlopePerGHz*(ghz-spec.MinMHz.GHz()))
}

// runProbes times each layer and records the per-layer metrics.
func runProbes(sz sizing, tmp string, tr *tracer, m map[string]float64) error {
	root := tr.begin("probes", 0, 0)
	defer tr.end(root, nil)
	probe := func(name string, fn func() error) error {
		id := tr.begin("probe "+name, root, 0)
		err := fn()
		tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}

	for _, k := range []struct {
		name string
		k    kern.Kernel
	}{
		{"mprime", kern.Mprime()}, {"linpack", kern.Linpack()}, {"idle", nil},
		{"firestarter", kern.Firestarter()}, {"memstream", kern.MemStream()},
	} {
		if err := probe("core.run_"+k.name, func() error {
			sys, err := tableVSystem(k.k)
			if err != nil {
				return err
			}
			m["core.run_"+k.name+"_ns_per_vms"] = perOp(sz.probeBatch, func(n int) {
				for range n {
					sys.Run(sim.Millisecond)
				}
			})
			return nil
		}); err != nil {
			return err
		}
	}

	if err := probe("core.fork", func() error {
		sys, err := tableVSystem(kern.Mprime())
		if err != nil {
			return err
		}
		var forks, releases []float64
		for range 5 {
			const n = 100
			var fork, rel time.Duration
			for range n {
				t0 := time.Now()
				c, err := sys.Fork()
				if err != nil {
					return err
				}
				t1 := time.Now()
				c.Release()
				fork += t1.Sub(t0)
				rel += time.Since(t1)
			}
			forks = append(forks, float64(fork.Nanoseconds())/n/1e3)
			releases = append(releases, float64(rel.Nanoseconds())/n/1e3)
		}
		m["core.fork_us"], m["core.release_us"] = median(forks), median(releases)
		return nil
	}); err != nil {
		return err
	}

	spec := uarch.E52680v3()
	if err := probe("workload", func() error {
		for _, k := range []struct {
			name string
			k    kern.Kernel
		}{{"mprime", kern.Mprime()}, {"linpack", kern.Linpack()}} {
			var t sim.Time
			m["workload.profile_"+k.name+"_ns"] = perOp(sz.probeBatch, func(n int) {
				for range n {
					sink += k.k.ProfileAt(t).Activity
					t += 500 * sim.Microsecond
				}
			})
		}
		return nil
	}); err != nil {
		return err
	}

	sets := gridLoads(spec, 64)
	if err := probe("cache", func() error {
		topo, err := ring.ForDie(spec.DiesCores)
		if err != nil {
			return err
		}
		model := cache.NewModel(spec, topo)
		var dst []cache.CoreResult
		i := 0
		m["cache.solve_ns"] = perOp(sz.probeBatch, func(n int) {
			for range n {
				dst = model.SolveInto(dst, sets[i%len(sets)], 2.5)
				i++
			}
			sink += dst[0].Rate
		})
		return nil
	}); err != nil {
		return err
	}

	if err := probe("power", func() error {
		pm := &spec.Power
		pkg := power.NewPackageModel(pm, 1, 30)
		states := make([][]power.CoreState, len(sets))
		for g, loads := range sets {
			for _, ld := range loads {
				states[g] = append(states[g], power.CoreState{
					FreqGHz: ld.FreqGHz, Volts: volts(pm, spec, ld.FreqGHz),
					Activity: ld.Prof.Activity, AVXFrac: ld.Prof.AVXFrac,
					IPCShare: 0.9, CState: cstate.C0})
			}
		}
		uv := volts(pm, spec, 2.5)
		var memo power.ComputeMemo
		i := 0
		m["power.compute_ns"] = perOp(sz.probeBatch, func(n int) {
			for range n {
				sink += pkg.ComputeMemoized(&memo, states[i%len(states)], 2.5, uv).Total()
				i++
			}
		})
		m["power.replay_ns"] = perOp(sz.probeBatch, func(n int) {
			for range n {
				sink += pkg.Replay(&memo).Total()
			}
		})
		return nil
	}); err != nil {
		return err
	}

	if err := probe("pcu", func() error {
		tel := make([]pcu.Telemetry, len(sets))
		for g, loads := range sets {
			cores := make([]pcu.CoreTelemetry, len(loads))
			for c, ld := range loads {
				cores[c] = pcu.CoreTelemetry{Active: true, RequestMHz: spec.TurboSettingMHz(),
					AVXNow: ld.Prof.AVXFrac > 0, StallFrac: 0.05 + 0.01*float64((g+c)%7),
					EPB: pcu.EPBBalanced}
			}
			tel[g] = pcu.Telemetry{Cores: cores, PkgPowerW: 118 + float64(g%5),
				TempC: 60, SystemMaxRequestMHz: spec.TurboSettingMHz(), MemoryStalls: true}
		}
		tick := func(p *pcu.PCU, pick func(i int) pcu.Telemetry) float64 {
			now, i := sim.Time(0), 0
			return perOp(sz.probeBatch, func(n int) {
				for range n {
					sink += float64(p.Tick(now, pick(i)).UncoreMHz)
					now += 500 * sim.Microsecond
					i++
				}
			})
		}
		m["pcu.tick_ns"] = tick(pcu.New(pcu.DefaultConfig(spec, 0, 0)),
			func(i int) pcu.Telemetry { return tel[i%len(tel)] })
		steady := tel[0]
		p := pcu.New(pcu.DefaultConfig(spec, 0, 0))
		p.Tick(0, steady)
		steady.Unchanged = true
		m["pcu.tick_unchanged_ns"] = tick(p, func(int) pcu.Telemetry { return steady })
		return nil
	}); err != nil {
		return err
	}

	if err := probe("fleet", func() error {
		parent, err := core.NewSystem(core.DefaultConfig())
		if err != nil {
			return err
		}
		for cpu := 0; cpu < parent.CPUs(); cpu++ {
			if err := parent.AssignKernel(cpu, kern.Firestarter(), 2); err != nil {
				return err
			}
		}
		parent.RequestTurbo()
		parent.Run(10 * sim.Millisecond)
		n := sz.fleetNodes
		perNode := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) / 1e3 }
		t0 := time.Now()
		fl, err := fleet.New(parent, fleet.Config{Nodes: n, Seed: defaultSeed, CapW: 85})
		if err != nil {
			return err
		}
		defer fl.Release()
		m["fleet.new_us_per_node"] = perNode(time.Since(t0))
		t0 = time.Now()
		fl.Step(sim.Millisecond)
		m["fleet.step_us_per_node"] = perNode(time.Since(t0))
		t0 = time.Now()
		fl.Measure(0, sim.Millisecond)
		m["fleet.measure_us_per_node"] = perNode(time.Since(t0))
		return nil
	}); err != nil {
		return err
	}

	return probe("expcache", func() error {
		dir, err := os.MkdirTemp(tmp, "probe-cache-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		c, err := expcache.Open(dir)
		if err != nil {
			return err
		}
		var body bytes.Buffer
		d, _ := exp.Lookup("tab3")
		if err := d.Run(exp.Options{Scale: sz.liveScale, Seed: defaultSeed}, &body, false); err != nil {
			return err
		}
		const n = 100
		var puts, gets []float64
		for b := range 5 {
			o := func(i int) exp.Options { return exp.Options{Scale: 0.25, Seed: uint64(b*n + i + 1)} }
			t0 := time.Now()
			for i := range n {
				if err := c.Put("tab3", o(i), false, body.Bytes()); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for i := range n {
				if _, ok := c.Get("tab3", o(i), false); !ok {
					return fmt.Errorf("entry %d missing", i)
				}
			}
			puts = append(puts, float64(t1.Sub(t0).Nanoseconds())/n/1e3)
			gets = append(gets, float64(time.Since(t1).Nanoseconds())/n/1e3)
		}
		m["expcache.put_us"], m["expcache.get_us"] = median(puts), median(gets)
		return nil
	})
}
