package cache

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"hswsim/internal/ring"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

func fuzzLoads(m *Model, nCores, mix uint8, fcSel uint8) []CoreLoad {
	n := int(nCores)%m.Spec.Cores + 1
	freqs := []float64{1.2, 1.5, 1.8, 2.1, 2.5, 2.9}
	kernels := []workload.Kernel{
		workload.BusyWait(), workload.Compute(), workload.DGEMM(),
		workload.L3Stream(), workload.MemStream(), workload.Firestarter(),
	}
	loads := make([]CoreLoad, n)
	for i := range loads {
		loads[i] = CoreLoad{
			CoreID:  i,
			FreqGHz: freqs[(int(fcSel)+i)%len(freqs)],
			Threads: 1 + (int(mix)+i)%2,
			Prof:    kernels[(int(mix)+i)%len(kernels)].ProfileAt(0),
		}
	}
	return loads
}

// Property: solver outputs are physical — rates within [0, unconstrained],
// stall fractions within [0, 1], and aggregate bandwidths within the
// hardware capacities.
func TestPropertySolverPhysical(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	f := func(nCores, mix, fcSel uint8, fuSel uint8) bool {
		fus := []float64{1.2, 2.0, 2.5, 3.0}
		fu := fus[int(fuSel)%len(fus)]
		loads := fuzzLoads(m, nCores, mix, fcSel)
		res := m.Solve(loads, fu)
		memTotal, l3Total := 0.0, 0.0
		for _, r := range res {
			if r.Rate < 0 || r.Rate > r.UnconstrainedRate+1e-6 {
				return false
			}
			if r.StallFrac < -1e-9 || r.StallFrac > 1+1e-9 {
				return false
			}
			memTotal += r.MemGBs
			l3Total += r.L3GBs
		}
		if memTotal > m.IMC.StreamCapacityGBs(fu)*1.001 {
			return false
		}
		if l3Total > m.L3CapacityGBs(fu)*1.001 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising the uncore clock never reduces any core's rate
// (uncore frequency is monotonically good).
func TestPropertyUncoreMonotone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	f := func(nCores, mix, fcSel uint8) bool {
		loads := fuzzLoads(m, nCores, mix, fcSel)
		lo := m.Solve(loads, 1.5)
		hi := m.Solve(loads, 3.0)
		for i := range lo {
			if hi[i].Rate+1e-6 < lo[i].Rate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: raising one core's clock never reduces its own rate when
// running alone (no shared-capacity interference).
func TestPropertyCoreFreqMonotoneAlone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	kernels := []workload.Kernel{
		workload.BusyWait(), workload.Compute(), workload.DGEMM(),
		workload.L3Stream(), workload.MemStream(), workload.Firestarter(),
	}
	f := func(kSel uint8, threads bool) bool {
		k := kernels[int(kSel)%len(kernels)]
		th := 1
		if threads {
			th = 2
		}
		prev := -1.0
		for _, fc := range []float64{1.2, 1.6, 2.0, 2.5, 3.0, 3.3} {
			res := m.Solve([]CoreLoad{{CoreID: 0, FreqGHz: fc, Threads: th, Prof: k.ProfileAt(0)}}, 3.0)
			if res[0].Rate+1e-6 < prev {
				return false
			}
			prev = res[0].Rate
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding cores never reduces aggregate bandwidth.
func TestPropertyConcurrencyMonotone(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	for _, k := range []workload.Kernel{workload.L3Stream(), workload.MemStream()} {
		prev := -1.0
		for n := 1; n <= spec.Cores; n++ {
			loads := make([]CoreLoad, n)
			for i := range loads {
				loads[i] = CoreLoad{CoreID: i, FreqGHz: 2.5, Threads: 2, Prof: k.ProfileAt(0)}
			}
			res := m.Solve(loads, 3.0)
			bw := TotalL3GBs(res) + TotalMemGBs(res)
			if bw+1e-6 < prev {
				t.Fatalf("%s: bandwidth fell from %.1f to %.1f at %d cores", k.Name(), prev, bw, n)
			}
			prev = bw
		}
	}
}

// refSolve is the per-core solver without operating points: every core
// solved on its own, then the three capacity stages, each summing its
// demand over all cores after the previous stage's rescale. It reports
// which stages bound (QPI, DRAM, L3).
func refSolve(m *Model, loads []CoreLoad, u float64) ([]CoreResult, [3]bool) {
	var bound [3]bool
	res := make([]CoreResult, len(loads))
	for i := range loads {
		res[i] = m.solveCore(&loads[i], u)
	}
	remote := 0.0
	for i := range res {
		remote += res[i].MemGBs * loads[i].Prof.RemoteMemFrac
	}
	if capQPI := m.Spec.Mem.QPIGBs; capQPI > 0 && remote > capQPI {
		bound[0] = true
		scale := capQPI / remote
		for i := range res {
			p := &loads[i].Prof
			if p.MemBytesPerInst > 0 && p.RemoteMemFrac > 0 {
				m.rescale(&res[i], &loads[i], scaleFactorForMem(p, 1-p.RemoteMemFrac*(1-scale)))
			}
		}
	}
	mem := 0.0
	for i := range res {
		mem += res[i].MemGBs
	}
	if capMem := m.IMC.StreamCapacityGBs(u); mem > capMem && mem > 0 {
		bound[1] = true
		scale := capMem / mem
		for i := range res {
			if loads[i].Prof.MemBytesPerInst > 0 {
				m.rescale(&res[i], &loads[i], scaleFactorForMem(&loads[i].Prof, scale))
			}
		}
	}
	l3 := 0.0
	for i := range res {
		l3 += res[i].L3GBs
	}
	if capL3 := m.L3CapacityGBs(u); l3 > capL3 && l3 > 0 {
		bound[2] = true
		scale := capL3 / l3
		for i := range res {
			if loads[i].Prof.L3BytesPerInst > 0 {
				m.rescale(&res[i], &loads[i], scale)
			}
		}
	}
	return res, bound
}

// sameBits reports whether two results are bitwise equal.
func sameBits(a, b CoreResult) bool {
	return math.Float64bits(a.Rate) == math.Float64bits(b.Rate) &&
		math.Float64bits(a.UnconstrainedRate) == math.Float64bits(b.UnconstrainedRate) &&
		math.Float64bits(a.L3GBs) == math.Float64bits(b.L3GBs) &&
		math.Float64bits(a.MemGBs) == math.Float64bits(b.MemGBs) &&
		math.Float64bits(a.StallFrac) == math.Float64bits(b.StallFrac)
}

// Property: solving cores grouped into operating points changes no bit
// of any result, against SolveInto on the expanded per-core loads and
// against refSolve, with random point assignments. The trials cover
// every capacity stage binding, alone and after the stage before it
// (whose rescale changes the demand the next stage reads).
func TestPropertySolveSharedMatchesSolveInto(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	// On the stock part the ring outruns DRAM by far; a quarter of its
	// bandwidth lets the L3 stage bind after the DRAM stage too.
	narrow := *spec
	narrow.Mem.UncoreBytesPerCycle /= 4
	models := []*Model{NewModel(spec, topo), NewModel(&narrow, topo)}
	profiles := []workload.Profile{
		workload.Compute().ProfileAt(0), workload.Firestarter().ProfileAt(0),
		workload.L3Stream().ProfileAt(0), workload.MemStream().ProfileAt(0),
		workload.NUMAStream(1).ProfileAt(0), workload.NUMAStream(0.4).ProfileAt(0),
		workload.Mprime().ProfileAt(7 * sim.Millisecond), workload.CG().ProfileAt(0),
		// Heavy L3 plus DRAM traffic, and a remote stream that also
		// reads the L3: each stage's rescale moves the next one's demand.
		{IPC1: 2.2, IPC2: 2.6, Activity: 0.6, L3BytesPerInst: 6, MemBytesPerInst: 3},
		{IPC1: 2, IPC2: 2.4, Activity: 0.5, L3BytesPerInst: 2, MemBytesPerInst: 8, RemoteMemFrac: 1},
	}
	freqs := []float64{1.2, 1.8, 2.5, 3.0}
	uncores := []float64{1.2, 2.0, 3.0}
	rng := rand.New(rand.NewPCG(1, 2))
	// Trials in which QPI, DRAM, L3, QPI then DRAM, and DRAM then L3 bound.
	var bound [5]int
	const trials = 3000
	for trial := 0; trial < trials; trial++ {
		m := models[trial%len(models)]
		// Each active core picks one of a few variants; a point is one
		// (ring class, variant) pair, its load the first core's.
		variants := make([]CoreLoad, 1+rng.IntN(4))
		for v := range variants {
			variants[v] = CoreLoad{FreqGHz: freqs[rng.IntN(len(freqs))], Threads: 1 + rng.IntN(2),
				Prof: profiles[rng.IntN(len(profiles))]}
		}
		var loads, points []CoreLoad
		var of []int
		pointOf := map[[2]int]int{}
		for c := 0; c < spec.Cores; c++ {
			if rng.IntN(6) == 0 && !(c == spec.Cores-1 && len(loads) == 0) {
				continue // idle
			}
			v := rng.IntN(len(variants))
			ld := variants[v]
			ld.CoreID = c
			loads = append(loads, ld)
			q, ok := pointOf[[2]int{m.RingClass(c), v}]
			if !ok {
				q = len(points)
				pointOf[[2]int{m.RingClass(c), v}] = q
				points = append(points, ld)
			}
			of = append(of, q)
		}
		u := uncores[rng.IntN(len(uncores))]
		perCore := m.SolveInto(nil, loads, u)
		ref, b := refSolve(m, loads, u)
		got := m.SolveShared(nil, points, of, u)
		if len(got) != len(points) {
			t.Fatalf("trial %d: %d results for %d points", trial, len(got), len(points))
		}
		for c := range loads {
			if g := got[of[c]]; !sameBits(g, perCore[c]) || !sameBits(g, ref[c]) {
				t.Fatalf("trial %d core %d (point %d): shared %+v, SolveInto %+v, reference %+v",
					trial, c, of[c], g, perCore[c], ref[c])
			}
		}
		for i, on := range []bool{b[0], b[1], b[2], b[0] && b[1], b[1] && b[2]} {
			if on {
				bound[i]++
			}
		}
	}
	for i, name := range []string{"QPI", "DRAM", "L3", "QPI then DRAM", "DRAM then L3"} {
		if bound[i] == 0 {
			t.Errorf("no trial bound %s", name)
		}
	}
	t.Logf("of %d trials, bound: QPI %d, DRAM %d, L3 %d, QPI then DRAM %d, DRAM then L3 %d",
		trials, bound[0], bound[1], bound[2], bound[3], bound[4])
}

// The 12-core die's two ring partitions are its two ring classes.
func TestRingClassPartitions(t *testing.T) {
	spec := uarch.E52680v3()
	topo, _ := ring.ForDie(spec.DiesCores)
	m := NewModel(spec, topo)
	for c := 0; c < spec.Cores; c++ {
		want := 0
		if c >= 8 {
			want = 1
		}
		if got := m.RingClass(c); got != want {
			t.Errorf("RingClass(%d) = %d, want %d", c, got, want)
		}
	}
	if got := m.RingClass(spec.Cores + 4); got != -1 {
		t.Errorf("RingClass beyond the topology = %d, want -1", got)
	}
}
