package fleet

import (
	"errors"
	"fmt"
	"time"

	"hswsim/internal/core"
	"hswsim/internal/obs"
	"hswsim/internal/perfctr"
	"hswsim/internal/sim"
	"hswsim/internal/slots"
)

// Config describes one fleet.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Seed derives every chip's variation draw (see Draw).
	Seed uint64
	// Params is the variation spread; zero fields take DefaultParams.
	Params Params
	// CapW, when nonzero, programs an enforced package power limit on
	// every socket of every node — the shared TDP policy the fleet
	// runs under. A limit core.System.SetPowerLimitW refuses fails New
	// and Sweep.
	CapW float64
	// Workers bounds the fan-out parallelism: 0 uses the compute-slot
	// pool's capacity, 1 forces strictly serial stepping (the
	// determinism reference).
	Workers int
}

// NodeResult is one node's measurement over a window.
type NodeResult struct {
	GHz  float64 // mean effective core frequency across sockets
	GIPS float64 // node instruction throughput
	PkgW float64 // summed package power at the window end
}

// nodeBatch is how many consecutive nodes one fan-out claim takes. A
// node step is short, so claiming one at a time would put the shared
// cursor on the critical path of every round.
const nodeBatch = 8

// forkNode forks the fleet's node i from parent and gives it its
// chips' seeded variation overlays and the power cap. A node that
// cannot be prepared is released, not returned.
func (cfg Config) forkNode(parent *core.System, i int) (*core.System, error) {
	n, err := parent.Fork()
	if err != nil {
		return nil, err
	}
	for s := 0; s < n.Sockets(); s++ {
		err := n.ApplyChipVariation(s, Draw(cfg.Seed, i, s, cfg.Params))
		if err == nil && cfg.CapW != 0 {
			err = n.SetPowerLimitW(s, cfg.CapW)
		}
		if err != nil {
			n.Release()
			return nil, fmt.Errorf("fleet: node %d: %w", i, err)
		}
	}
	return n, nil
}

// measure runs node n for window and returns what it did over it.
// Frequency and throughput are sampled on the first core of each socket
// (the converted experiments' convention).
func measure(n *core.System, window sim.Time) NodeResult {
	socks := n.Sockets()
	perSock := n.Spec().Cores
	var before [8]perfctr.Snapshot
	if socks > len(before) {
		socks = len(before)
	}
	for s := 0; s < socks; s++ {
		before[s] = n.Core(s * perSock).Snapshot()
	}
	n.Run(window)
	var r NodeResult
	for s := 0; s < socks; s++ {
		iv := perfctr.Delta(before[s], n.Core(s*perSock).Snapshot())
		r.GHz += iv.FreqGHz() / float64(socks)
		r.GIPS += iv.GIPS() * float64(perSock)
	}
	for s := 0; s < n.Sockets(); s++ {
		r.PkgW += n.Socket(s).LastPkgPowerW()
	}
	return r
}

// Sweep runs every node of cfg from fork to release in one fan-out:
// node i is forked from the warmed parent and prepared as New does it,
// run for step, measured over window and released before its worker
// takes the next node. So at most Workers nodes are alive at once,
// whatever the fleet size, and the free list recycles them. The parent
// must be integrated and quiescent (see core.System.Fork), since every
// worker forks it concurrently.
//
// Node i's result equals the batch fleet's (New, Step(step),
// Measure(0, window)) bit for bit, and it depends only on the parent,
// cfg.Seed, i, cfg.Params, cfg.CapW, step and window — never on
// cfg.Nodes or Workers. So the first n results of one sweep are the
// sweep of an n-node fleet. The first node that fails stops the sweep.
func Sweep(parent *core.System, cfg Config, step, window sim.Time) ([]NodeResult, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: need a positive node count, got %d", cfg.Nodes)
	}
	start := time.Now()
	out := make([]NodeResult, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	slots.Default().Map(cfg.Nodes, cfg.Workers, nodeBatch, func(i int) bool {
		n, err := cfg.forkNode(parent, i)
		if err != nil {
			errs[i] = err
			return false
		}
		n.Run(step)
		out[i] = measure(n, window)
		n.Release()
		return true
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// One fork and two runs per node, as New, Step and Measure count.
	obs.FleetNodes.Add(int64(cfg.Nodes))
	obs.FleetSteps.Add(2 * int64(cfg.Nodes))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
	return out, nil
}

// Fleet is a population of independent forked nodes stepped in
// lockstep rounds. The nodes are full core.System forks — same virtual
// clock, same deterministic evolution — with per-chip manufacturing
// variation applied on top, so under a binding power cap the fleet
// develops the frequency spread the variation literature measures.
// Every node stays alive until Release; Sweep runs the same nodes one
// per worker instead.
type Fleet struct {
	cfg   Config
	nodes []*core.System
}

// New forks cfg.Nodes children from the warmed parent, applies each
// chip's seeded variation overlay and programs the power cap. The nodes
// fan out across the slot pool, each forked and prepared as Sweep does
// it, so the parent must be integrated and quiescent (see
// core.System.Fork); it is left untouched and can seed any number of
// fleets. The first node that fails stops the fan-out, and New releases
// every node it forked before returning the error.
func New(parent *core.System, cfg Config) (*Fleet, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: need a positive node count, got %d", cfg.Nodes)
	}
	start := time.Now()
	f := &Fleet{cfg: cfg, nodes: make([]*core.System, cfg.Nodes)}
	errs := make([]error, cfg.Nodes)
	slots.Default().Map(cfg.Nodes, cfg.Workers, nodeBatch, func(i int) bool {
		f.nodes[i], errs[i] = cfg.forkNode(parent, i)
		return errs[i] == nil
	})
	if err := errors.Join(errs...); err != nil {
		f.Release()
		return nil, err
	}
	obs.FleetNodes.Add(int64(len(f.nodes)))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
	return f, nil
}

// StepNode advances one node by d of virtual time. This is the
// steady-state hot path: it allocates nothing.
func (f *Fleet) StepNode(i int, d sim.Time) { f.nodes[i].Run(d) }

// Step advances every node by d in one parallel round. Nodes are
// independent platforms, so parallelism changes wall-clock time only —
// a Workers=1 fleet evolves byte-identically.
func (f *Fleet) Step(d sim.Time) {
	start := time.Now()
	slots.Default().Map(len(f.nodes), f.cfg.Workers, nodeBatch, func(i int) bool {
		f.StepNode(i, d)
		return true
	})
	obs.FleetSteps.Add(int64(len(f.nodes)))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
}

// Measure runs settle then a measurement window on every node and
// returns per-node results indexed by node — deterministic regardless
// of Workers.
func (f *Fleet) Measure(settle, window sim.Time) []NodeResult {
	start := time.Now()
	out := make([]NodeResult, len(f.nodes))
	slots.Default().Map(len(f.nodes), f.cfg.Workers, nodeBatch, func(i int) bool {
		n := f.nodes[i]
		if settle > 0 {
			n.Run(settle)
		}
		out[i] = measure(n, window)
		return true
	})
	obs.FleetSteps.Add(int64(len(f.nodes)))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
	return out
}

// Release returns every node's storage to the fork free list, skipping
// the nodes a refused New never forked. The fleet must not be used
// afterwards.
func (f *Fleet) Release() {
	for _, n := range f.nodes {
		if n != nil {
			n.Release()
		}
	}
	f.nodes = nil
}
