package fleet

import (
	"fmt"
	"math"
	"testing"

	"hswsim/internal/core"
	"hswsim/internal/obs"
	"hswsim/internal/sim"
	"hswsim/internal/slots"
	"hswsim/internal/workload"
)

// warmParent builds the default dual-socket node loaded with
// FIRESTARTER at turbo and lets transients decay — the fleet template.
func warmParent(t testing.TB) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.RequestTurbo()
	sys.Run(20 * sim.Millisecond)
	return sys
}

func TestDrawDeterministicAndDistinct(t *testing.T) {
	p := DefaultParams()
	a := Draw(0x5eed, 3, 1, p)
	b := Draw(0x5eed, 3, 1, p)
	if a != b {
		t.Fatalf("same (seed,node,socket) drew different chips: %+v vs %+v", a, b)
	}
	if a == Draw(0x5eed, 4, 1, p) {
		t.Errorf("distinct nodes drew identical chips")
	}
	if a == Draw(0x5eed, 3, 0, p) {
		t.Errorf("distinct sockets drew identical chips")
	}
	if a == Draw(0xbeef, 3, 1, p) {
		t.Errorf("distinct seeds drew identical chips")
	}
	if a.LeakScale <= 0 || a.CeffScale <= 0 {
		t.Errorf("scales must be positive: %+v", a)
	}
	// Disabling one term must not reshuffle the others.
	noLeak := Draw(0x5eed, 3, 1, Params{LeakSigma: -1, CeffSigma: p.CeffSigma, VminSigmaV: p.VminSigmaV})
	if noLeak.LeakScale != 1 {
		t.Errorf("disabled leak term: LeakScale = %v, want 1", noLeak.LeakScale)
	}
	if noLeak.CeffScale != a.CeffScale || noLeak.VminOffsetV != a.VminOffsetV {
		t.Errorf("disabling leak reshuffled other draws: %+v vs %+v", noLeak, a)
	}
}

// TestFleetSerialVsParallelIdentical pins the core determinism claim:
// a Workers=1 fleet and a fully parallel fleet with the same seed
// produce bit-identical per-node results, in the same order.
func TestFleetSerialVsParallelIdentical(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 48, Seed: 0x5eed, CapW: 85}

	run := func(workers int) []NodeResult {
		c := cfg
		c.Workers = workers
		fl, err := New(parent, c)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Release()
		fl.Step(2 * sim.Millisecond)
		return fl.Measure(sim.Millisecond, 2*sim.Millisecond)
	}
	serial := run(1)
	parallel := run(0)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("node %d diverged: serial %+v, parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestFleetRepeatable pins fork-pool hygiene: building the same fleet
// twice from one parent — the second time entirely from recycled
// children — yields identical results.
func TestFleetRepeatable(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 32, Seed: 0x1234, CapW: 85, Workers: 1}
	run := func() []NodeResult {
		fl, err := New(parent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Release()
		return fl.Measure(sim.Millisecond, 2*sim.Millisecond)
	}
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("node %d differs across repetitions: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestFleetSeedsDistinct pins that different seeds draw statistically
// distinct fleets, while disabling variation collapses the spread.
func TestFleetSeedsDistinct(t *testing.T) {
	parent := warmParent(t)
	run := func(seed uint64, p Params) []NodeResult {
		fl, err := New(parent, Config{Nodes: 24, Seed: seed, Params: p, CapW: 85})
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Release()
		return fl.Measure(sim.Millisecond, 2*sim.Millisecond)
	}
	a := run(0x5eed, Params{})
	b := run(0xbeef, Params{})
	differ := 0
	for i := range a {
		if a[i].PkgW != b[i].PkgW {
			differ++
		}
	}
	if differ < len(a)/2 {
		t.Errorf("distinct seeds: only %d/%d nodes differ in power", differ, len(a))
	}

	// A varied fleet must show per-node power spread; an unvaried one
	// (all terms disabled) must not.
	spread := func(rs []NodeResult) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rs {
			lo, hi = math.Min(lo, r.PkgW), math.Max(hi, r.PkgW)
		}
		return hi - lo
	}
	if s := spread(a); s <= 0 {
		t.Errorf("varied fleet has zero power spread")
	}
	flat := run(0x5eed, Params{LeakSigma: -1, CeffSigma: -1, VminSigmaV: -1})
	if s := spread(flat); s != 0 {
		t.Errorf("unvaried fleet has power spread %v, want 0", s)
	}
}

// TestFleetFanOutAllocs pins the pooled fan-out path: once a first
// 64-node fleet has been built and released, building and releasing
// the same fleet again recycles every child from the fork free list
// and allocates at most two objects per node.
func TestFleetFanOutAllocs(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 64, Seed: 0x5eed, CapW: 85, Workers: 1}
	cycle := func() {
		fl, err := New(parent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fl.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(5, cycle) / float64(cfg.Nodes); got > 2 {
		t.Fatalf("fleet New+Release allocates %.2f objects per node, want at most 2", got)
	}
}

// sweepStep and sweepWindow are the per-node settling run and
// measurement window of the Sweep tests.
const (
	sweepStep   = 2 * sim.Millisecond
	sweepWindow = 2 * sim.Millisecond
)

// batchRun measures a batch fleet the way Sweep measures each node:
// New, Step(step), Measure(0, window), Release.
func batchRun(t *testing.T, parent *core.System, cfg Config) []NodeResult {
	t.Helper()
	fl, err := New(parent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Release()
	fl.Step(sweepStep)
	return fl.Measure(0, sweepWindow)
}

// sameResults fails unless got and want agree node for node.
func sameResults(t *testing.T, what string, got, want []NodeResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestSweepMatchesBatch is Sweep's differential test: streaming each
// node from fork to release yields the batch fleet's per-node results
// bit for bit, serially and at full width.
func TestSweepMatchesBatch(t *testing.T) {
	parent := warmParent(t)
	for _, workers := range []int{1, 0} {
		cfg := Config{Nodes: 48, Seed: 0x5eed, CapW: 85, Workers: workers}
		got, err := Sweep(parent, cfg, sweepStep, sweepWindow)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("Workers=%d sweep against batch", workers), got, batchRun(t, parent, cfg))
	}
}

// TestSweepPrefixMatchesBatch pins what lets one sweep serve a whole
// fleet-size ladder: node i's result does not depend on the fleet size,
// so the first n results of a 256-node sweep are an n-node batch
// fleet's.
func TestSweepPrefixMatchesBatch(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 256, Seed: 0x5eed, CapW: 85}
	all, err := Sweep(parent, cfg, sweepStep, sweepWindow)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 64} {
		c := cfg
		c.Nodes = n
		sameResults(t, fmt.Sprintf("%d-node prefix", n), all[:n], batchRun(t, parent, c))
	}
}

// fleetRounds reads the fleet_round_wall_ns observation count.
func fleetRounds() int64 {
	for _, m := range obs.Snapshot() {
		if m.Name == "fleet_round_wall_ns" {
			return m.Count
		}
	}
	return 0
}

// TestSweepLiveNodesBounded pins Sweep's memory bound without reading
// RSS: a 256-node sweep from a warm parent whose free list starts empty
// forks at most Workers fresh children, recycling the rest, and once
// the free list is filled a sweep allocates at most two objects per
// node. It also pins the fleet counters a sweep reports.
func TestSweepLiveNodesBounded(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 256, Seed: 0x5eed, CapW: 85}
	workers := slots.Default().Cap()
	forks, reused := obs.SimForks.Value(), obs.CoreForkReuse.Value()
	nodes, steps := obs.FleetNodes.Value(), obs.FleetSteps.Value()
	rounds := fleetRounds()
	if _, err := Sweep(parent, cfg, sweepStep, sweepWindow); err != nil {
		t.Fatal(err)
	}
	forks, reused = obs.SimForks.Value()-forks, obs.CoreForkReuse.Value()-reused
	if forks != 256 || forks-reused < 1 || forks-reused > int64(workers) {
		t.Errorf("256-node sweep: %d forks, %d fresh; want 256 forks, 1 to %d fresh", forks, forks-reused, workers)
	}
	if got := obs.FleetNodes.Value() - nodes; got != 256 {
		t.Errorf("fleet_nodes_forked_total grew by %d, want 256", got)
	}
	if got := obs.FleetSteps.Value() - steps; got != 512 {
		t.Errorf("fleet_node_steps_total grew by %d, want 512", got)
	}
	if got := fleetRounds() - rounds; got != 1 {
		t.Errorf("fleet_round_wall_ns observed %d rounds, want 1", got)
	}

	sweep := func() {
		if _, err := Sweep(parent, cfg, sweepStep, sweepWindow); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(2, sweep) / float64(cfg.Nodes); got > 2 {
		t.Fatalf("pooled sweep allocates %.2f objects per node, want at most 2", got)
	}
}

// TestCapOutOfRangeFails pins that a power cap the package limit
// register cannot hold fails the fleet instead of wrapping to a tiny
// limit: New and Sweep both return the refusal.
func TestCapOutOfRangeFails(t *testing.T) {
	parent := warmParent(t)
	for _, capW := range []float64{4100, math.NaN(), -1} {
		cfg := Config{Nodes: 4, Seed: 0x5eed, CapW: capW, Workers: 1}
		if fl, err := New(parent, cfg); err == nil {
			fl.Release()
			t.Errorf("New with a %v W cap succeeded", capW)
		}
		if _, err := Sweep(parent, cfg, sweepStep, sweepWindow); err == nil {
			t.Errorf("Sweep with a %v W cap succeeded", capW)
		}
	}
}

// TestRefusedNewReleasesNodes pins the batch fan-out's failure path. A
// New whose cap is refused returns the refusal without releasing the
// nodes it never forked (a nil node would panic) and releases every
// node it did fork: each worker forks one node before its refusal
// stops the fan-out, so refusing the same fleet again and again
// recycles those nodes and forks at most one fresh child per compute
// slot in all. The valid New of the same size that follows recycles
// every one of them and forks fresh only the rest.
func TestRefusedNewReleasesNodes(t *testing.T) {
	parent := warmParent(t)
	cfg := Config{Nodes: 64, Seed: 0x5eed, CapW: math.NaN()}
	workers := int64(slots.Default().Cap())
	forks, reused := obs.SimForks.Value(), obs.CoreForkReuse.Value()
	for round := int64(0); round <= workers; round++ {
		if fl, err := New(parent, cfg); err == nil {
			fl.Release()
			t.Fatalf("round %d: New with a NaN cap succeeded", round)
		}
	}
	forks, reused = obs.SimForks.Value()-forks, obs.CoreForkReuse.Value()-reused
	refusedFresh := forks - reused
	if forks < workers+1 || refusedFresh < 1 || refusedFresh > workers {
		t.Fatalf("%d refused %d-node fleets: %d forks, %d fresh; want at least %d forks, 1 to %d fresh",
			workers+1, cfg.Nodes, forks, refusedFresh, workers+1, workers)
	}

	cfg.CapW = 85
	forks, reused = obs.SimForks.Value(), obs.CoreForkReuse.Value()
	fl, err := New(parent, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl.Release()
	forks, reused = obs.SimForks.Value()-forks, obs.CoreForkReuse.Value()-reused
	if forks != int64(cfg.Nodes) || reused != refusedFresh {
		t.Errorf("valid %d-node fleet after the refusals: %d forks, %d recycled; want %d forks, %d recycled",
			cfg.Nodes, forks, reused, cfg.Nodes, refusedFresh)
	}
}
