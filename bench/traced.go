package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hswsim/internal/exp"
)

// side is one of the three passes of a traced round.
type side int

const (
	plain    side = iota // no spans, no profiler
	spanned              // spans around every call into a layer
	profiled             // under exp.EnableEnergyProfile
)

// roundOrders alternate the order of the sides from round to round, so
// no side always runs first.
var roundOrders = [2][3]side{{plain, spanned, profiled}, {profiled, spanned, plain}}

// sideRunner runs one side of round r.
type sideRunner func(r int, s side) (pass, error)

// runTraced is the traced run. After the set-up it runs the
// per-experiment ladder and the layer probes, then rounds of three
// passes of the same work: plain, spanned and profiled. Rounds go on
// while the next is expected to end within budget of the exec at t0,
// and at least two run. The tracing and profiler overheads are medians
// of the rounds' ratios, so host drift between rounds cancels. It
// writes the spans to traceFile and returns every per-layer metric;
// end-to-end numbers always come from untraced runs.
func runTraced(w workload, seed uint64, sz sizing, t0 time.Time, budget time.Duration, out, traceFile, run string) (childReport, error) {
	tr := newTracer(run)
	m := map[string]float64{}
	tmp, err := tmpDir(out)
	if err != nil {
		return childReport{}, err
	}
	var rep childReport
	var once sideRunner
	if w.name == "serve" {
		once, err = serveSides(seed, sz, tmp, tr, m, "pass traced")
	} else {
		rep.Setup, once = simSides(w, sz, t0, tr)
		err = serveProbe(seed, sz, tmp, tr, m)
	}
	if err != nil {
		return childReport{}, err
	}
	if err := ladder(sz, tr, m); err != nil {
		return childReport{}, err
	}
	if err := runProbes(sz, tmp, tr, m); err != nil {
		return childReport{}, err
	}
	var traceRatios, eprofRatios []float64
	for r := 0; ; r++ {
		r0 := time.Now()
		var got [3]pass
		for _, s := range roundOrders[r%2] {
			if s == profiled {
				exp.EnableEnergyProfile()
			}
			p, err := once(r, s)
			if s == profiled {
				exp.DisableEnergyProfile()
			}
			if err != nil {
				return childReport{}, err
			}
			got[s] = p
		}
		if r == 0 {
			passLayer(got[spanned], m)
		}
		rep.Passes = append(rep.Passes, got[:]...)
		traceRatios = append(traceRatios, ratio(got[spanned].Wall, got[plain].Wall))
		eprofRatios = append(eprofRatios, ratio(got[profiled].CPU, got[plain].CPU))
		if r >= 1 && time.Since(t0)+time.Since(r0) > budget {
			break
		}
	}
	m["bench.trace_overhead_ratio"] = median(traceRatios)
	m["eprof.overhead_ratio"] = median(eprofRatios)
	if err := writeTrace(traceFile, tr); err != nil {
		return childReport{}, err
	}
	rep.Layer = m
	return rep, nil
}

// simSides runs a simulation workload's set-up and returns its sides:
// each is one RunSuite pass, the spanned one with a span per experiment.
func simSides(w workload, sz sizing, t0 time.Time, tr *tracer) (pass, sideRunner) {
	setup := simSetup(w, sz, t0)
	o := simOptions(w, sz)
	return setup, func(_ int, s side) (pass, error) {
		if s != spanned {
			return simPass(w.ids, o, nil, 0), nil
		}
		id := tr.begin("pass traced", 0, 0)
		p := simPass(w.ids, o, tr, id)
		tr.end(id, map[string]any{"cpu_s": p.CPU, "digest": p.Digest})
		return p, nil
	}
}

// serveSides renders the hot set's reference bytes once and returns the
// serve sides: each replays round r's op stream against a fresh server
// with an empty cache, so the three sides of a round send the same
// requests to the same state. The spanned side also keeps the access
// log; its first batch gives the server and result-cache metrics, and
// each of its batches gets a root span named span. A side's pass counts
// its server's prefill requests too.
func serveSides(seed uint64, sz sizing, tmp string, tr *tracer, m map[string]float64, span string) (sideRunner, error) {
	hot := hotSet(seed, sz)
	refs, err := referenceBytes(hot)
	if err != nil {
		return nil, err
	}
	return func(r int, s side) (pass, error) {
		var access *accessLog
		if s == spanned {
			access = newAccessLog()
		}
		e, setup, err := newServeEnv(hot, tmp, access)
		if err != nil {
			return pass{}, err
		}
		defer e.close()
		e.setRefs(refs, &setup)
		ops := opQueue(seed, streamID(0, r), sz.batch, sz)
		var p pass
		if s == spanned {
			id := tr.begin(span, 0, 0)
			p = e.batch(ops, tr, id)
			tr.end(id, map[string]any{"cpu_s": p.CPU, "failed": p.Failed})
			lines := access.take(len(ops))
			if r == 0 {
				serverLayer(ops, p, lines, m)
			}
		} else {
			p = e.batch(ops, nil, 0)
		}
		p.Attempted += setup.Attempted
		p.Failed += setup.Failed
		p.Errors = append(setup.Errors, p.Errors...)
		return p, nil
	}, nil
}

// serveProbe gives the simulation workloads' traced runs their server
// and result-cache metrics: one traced batch of the serve traffic mix
// against a fresh server.
func serveProbe(seed uint64, sz sizing, tmp string, tr *tracer, m map[string]float64) error {
	once, err := serveSides(seed, sz, tmp, tr, m, "probe serve")
	if err == nil {
		var p pass
		if p, err = once(0, spanned); err == nil && p.Failed > 0 {
			err = fmt.Errorf("%d of %d requests failed: %v", p.Failed, p.Attempted, p.Errors)
		}
	}
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	return nil
}

// passLayer derives the event-engine, integrator, fork, scheduler and
// sweep metrics of one pass from its counter deltas.
func passLayer(p pass, m map[string]float64) {
	f := func(name string) float64 { return float64(p.Counts[name]) }
	events, forks := f("sim_events_dispatched_total"), f("sim_forks_total")
	reuse, alloc := f("sim_timer_pool_reuse_total"), f("sim_timer_pool_alloc_total")
	full, replayed := f("power_segments_full_total"), f("power_segments_replayed_total")
	m["exp.sweep_points"] = f("exp_sweep_points_total")
	// Little's law: summed slot wait over the pass wall is the mean
	// number of callers waiting for a compute slot.
	m["slots.mean_waiters"] = ratio(f("sched_slot_wait_ns_total")/1e9, p.Wall)
	m["slots.steals"] = f("sched_shard_steals_total")
	m["sim.events"] = events
	m["sim.events_per_s"] = ratio(events, p.Wall)
	m["sim.pool_reuse_ratio"] = ratio(reuse, reuse+alloc)
	m["sim.coalesce_joins"] = f("sim_tick_coalesce_joins_total")
	m["core.segments_full"] = full
	m["core.replay_ratio"] = ratio(replayed, replayed+full)
	m["core.forks"] = forks
	m["core.fork_reuse_ratio"] = ratio(f("core_fork_child_reuse_total"), forks)
	m["core.fork_copied_mb"] = f("core_fork_copied_bytes_total") / (1 << 20)
}

// ladder runs each ladder experiment alone, one after another, and
// attaches its counter deltas to its span: the process-wide counters
// split by experiment from outside.
func ladder(sz sizing, tr *tracer, m map[string]float64) error {
	root := tr.begin("ladder", 0, 0)
	defer tr.end(root, nil)
	for _, id := range ladderIDs {
		sid := tr.begin("exp "+id, root, 0)
		p := simPass([]string{id}, exp.Options{Scale: sz.ladderScale, Seed: defaultSeed}, nil, 0)
		tr.end(sid, map[string]any{"cpu_s": p.CPU, "counts": p.Counts})
		if p.Failed > 0 {
			return fmt.Errorf("ladder %s: %v", id, p.Errors)
		}
		m["exp."+id+".run_s"] = p.Wall
	}
	return nil
}

func writeTrace(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
