package fleet

import (
	"testing"

	"hswsim/internal/sim"
)

// benchNodes is the per-op fleet size of the fork benchmark: small
// enough that released children fit the fork free list, so the
// steady-state iteration measures the pooled fan-out path.
const benchNodes = 64

// BenchmarkFleetFork measures one full fleet fan-out and teardown:
// New forks 64 varied nodes from the warmed parent one by one (each
// recycled from the free list), with variation overlays and power
// caps, and Release returns them. Nodes forked per second is
// ns/op⁻¹ × 64. One untimed fan-out fills the free list first, so
// allocs/op does not depend on b.N.
func BenchmarkFleetFork(b *testing.B) {
	parent := warmParent(b)
	cfg := Config{Nodes: benchNodes, Seed: 0x5eed, CapW: 85, Workers: 1}
	fl, err := New(parent, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fl.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl, err := New(parent, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fl.Release()
	}
}

// BenchmarkFleetStep measures the steady-state per-node step: one
// node-step of a millisecond of virtual time. This is the fleet
// driver's hot path and must not allocate; node-steps per second is
// ns/op⁻¹.
func BenchmarkFleetStep(b *testing.B) {
	parent := warmParent(b)
	fl, err := New(parent, Config{Nodes: benchNodes, Seed: 0x5eed, CapW: 85, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Release()
	// Let every node ride out the cap-adjustment transient so the
	// timed region is pure steady state.
	fl.Step(5 * sim.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.StepNode(i%benchNodes, sim.Millisecond)
	}
}

// BenchmarkFleetNodeCapBurst measures what FleetVariationStudy does to
// each node at scale 0.25: fork it from the warmed FIRESTARTER-at-turbo
// parent (Hyper-Threading on), cap both sockets at 85 W, run the
// study's 7.5 ms of settling and measurement, release. Unlike
// BenchmarkFleetStep it times the cap transient itself, a burst of
// per-core p-state landings. One untimed round fills the fork free list
// first, so allocs/op does not depend on b.N.
func BenchmarkFleetNodeCapBurst(b *testing.B) {
	parent := warmParent(b)
	round := func() {
		n, err := parent.Fork()
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < n.Sockets(); s++ {
			if err := n.SetPowerLimitW(s, 85); err != nil {
				b.Fatal(err)
			}
		}
		n.Run(7500 * sim.Microsecond)
		n.Release()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkFleetSweep measures one streamed fleet: Sweep of 64 varied
// nodes from the warmed parent under the 85 W cap, each forked from the
// free list, run 2.5 ms, measured over 5 ms and released before the
// next. Nodes swept per second is ns/op⁻¹ × 64. One untimed sweep
// fills the free list first, so allocs/op does not depend on b.N.
func BenchmarkFleetSweep(b *testing.B) {
	parent := warmParent(b)
	cfg := Config{Nodes: benchNodes, Seed: 0x5eed, CapW: 85, Workers: 1}
	sweep := func() {
		if _, err := Sweep(parent, cfg, 2500*sim.Microsecond, 5*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
