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
	// CapW, when positive, programs an enforced package power limit on
	// every socket of every node — the shared TDP policy the fleet
	// runs under.
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

// Fleet is a population of independent forked nodes stepped in
// lockstep rounds. The nodes are full core.System forks — same virtual
// clock, same deterministic evolution — with per-chip manufacturing
// variation applied on top, so under a binding power cap the fleet
// develops the frequency spread the variation literature measures.
type Fleet struct {
	cfg   Config
	nodes []*core.System
	pool  *slots.Pool
}

// New forks cfg.Nodes children from the warmed parent in one batch,
// applies each chip's seeded variation overlay and programs the power
// cap. The parent is left untouched (it can seed any number of
// fleets); variation application fans out across the slot pool since
// every node is independent, and the first node that fails stops it.
func New(parent *core.System, cfg Config) (*Fleet, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: need a positive node count, got %d", cfg.Nodes)
	}
	start := time.Now()
	nodes, err := parent.ForkN(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:   cfg,
		nodes: nodes,
		pool:  slots.Default(),
	}
	errs := make([]error, len(nodes))
	f.pool.Map(len(nodes), cfg.Workers, nodeBatch, func(i int) bool {
		n := nodes[i]
		for s := 0; s < n.Sockets(); s++ {
			v := Draw(cfg.Seed, i, s, cfg.Params)
			if err := n.ApplyChipVariation(s, v); err != nil {
				errs[i] = err
				return false
			}
			if cfg.CapW > 0 {
				if err := n.SetPowerLimitW(s, cfg.CapW); err != nil {
					errs[i] = err
					return false
				}
			}
		}
		return true
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
	f.pool.Map(len(f.nodes), f.cfg.Workers, nodeBatch, func(i int) bool {
		f.StepNode(i, d)
		return true
	})
	obs.FleetSteps.Add(int64(len(f.nodes)))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
}

// Measure runs settle then a measurement window on every node and
// returns per-node results indexed by node — deterministic regardless
// of Workers. Frequency and throughput are sampled on the first core
// of each socket (the converted experiments' convention).
func (f *Fleet) Measure(settle, window sim.Time) []NodeResult {
	start := time.Now()
	out := make([]NodeResult, len(f.nodes))
	f.pool.Map(len(f.nodes), f.cfg.Workers, nodeBatch, func(i int) bool {
		n := f.nodes[i]
		if settle > 0 {
			n.Run(settle)
		}
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
		out[i] = r
		return true
	})
	obs.FleetSteps.Add(int64(len(f.nodes)))
	obs.FleetWall.Observe(time.Since(start).Nanoseconds())
	return out
}

// Release returns every node's storage to the fork free list. The
// fleet must not be used afterwards.
func (f *Fleet) Release() {
	for _, n := range f.nodes {
		n.Release()
	}
	f.nodes = nil
}
