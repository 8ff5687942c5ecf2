package cache

import (
	"testing"

	"hswsim/internal/ring"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// BenchmarkSolveSharedTableV solves what a full integration segment of
// one Table V mprime socket hands the solver: its 12 cores at the
// sustained 2.6 GHz with a 2.5 GHz uncore group into two operating
// points, one per ring class, with the profile sampled on the 500 µs
// PCU grid.
func BenchmarkSolveSharedTableV(b *testing.B) {
	spec := uarch.E52680v3()
	topo, err := ring.ForDie(spec.DiesCores)
	if err != nil {
		b.Fatal(err)
	}
	m := NewModel(spec, topo)
	of := make([]int, spec.Cores)
	for c := range of {
		of[c] = m.RingClass(c)
	}
	k := workload.Mprime()
	sets := make([][]CoreLoad, 64)
	for g := range sets {
		prof := k.ProfileAt(sim.Time(g) * 500 * sim.Microsecond)
		sets[g] = []CoreLoad{
			{CoreID: 0, FreqGHz: 2.6, Threads: 1, Prof: prof},
			{CoreID: 8, FreqGHz: 2.6, Threads: 1, Prof: prof},
		}
	}
	var dst []CoreResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = m.SolveShared(dst, sets[i%len(sets)], of, 2.5)
	}
}
