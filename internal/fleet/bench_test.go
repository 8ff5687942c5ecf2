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
// ForkN of 64 varied nodes from the warmed parent (recycled from the
// free list), variation overlays, power caps, release. Nodes forked
// per second is ns/op⁻¹ × 64. One untimed fan-out fills the free list
// first, so allocs/op does not depend on b.N.
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
