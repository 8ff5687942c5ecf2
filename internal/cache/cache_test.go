package cache

import (
	"math"
	"testing"

	"hswsim/internal/ring"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// TotalMemGBs sums DRAM bandwidth over results.
func TotalMemGBs(res []CoreResult) float64 {
	t := 0.0
	for _, r := range res {
		t += r.MemGBs
	}
	return t
}

// TotalL3GBs sums L3 bandwidth over results.
func TotalL3GBs(res []CoreResult) float64 {
	t := 0.0
	for _, r := range res {
		t += r.L3GBs
	}
	return t
}

func hswModel(t *testing.T) *Model {
	t.Helper()
	spec := uarch.E52680v3()
	topo, err := ring.ForDie(spec.DiesCores)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(spec, topo)
}

func snbModel(t *testing.T) *Model {
	t.Helper()
	spec := uarch.E52670SNB()
	topo, err := ring.ForDie(8)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(spec, topo)
}

func wsmModel(t *testing.T) *Model {
	t.Helper()
	spec := uarch.X5670WSM()
	// Westmere has no Haswell die layout; use the single-ring 8-core
	// topology truncated by the solver to 6 active cores.
	topo, err := ring.ForDie(8)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(spec, topo)
}

func streamLoads(m *Model, k workload.Kernel, cores, threads int, ghz float64) []CoreLoad {
	loads := make([]CoreLoad, cores)
	for i := range loads {
		loads[i] = CoreLoad{CoreID: i, FreqGHz: ghz, Threads: threads, Prof: k.ProfileAt(0)}
	}
	return loads
}

func memBW(m *Model, cores, threads int, coreGHz, uncGHz float64) float64 {
	return TotalMemGBs(m.Solve(streamLoads(m, workload.MemStream(), cores, threads, coreGHz), uncGHz))
}

func l3BW(m *Model, cores, threads int, coreGHz, uncGHz float64) float64 {
	return TotalL3GBs(m.Solve(streamLoads(m, workload.L3Stream(), cores, threads, coreGHz), uncGHz))
}

func TestDRAMBandwidthIndependentOfCoreFreqAtMaxConcurrency(t *testing.T) {
	// Figure 7b: "On the Haswell-EP architecture, DRAM performance at
	// maximal concurrency does not depend on the core frequency."
	// (UFS drives the uncore to 3.0 GHz under memory stalls.)
	m := hswModel(t)
	base := memBW(m, 12, 2, 2.5, 3.0)
	for _, f := range []float64{1.2, 1.5, 1.8, 2.1} {
		bw := memBW(m, 12, 2, f, 3.0)
		if rel := bw / base; rel < 0.99 {
			t.Errorf("DRAM bw at %.1f GHz = %.1f GB/s (rel %.3f), want independent of core clock", f, bw, rel)
		}
	}
}

func TestDRAMSaturatesAroundEightCores(t *testing.T) {
	// Figure 8: "The main memory read bandwidth saturates at 8 cores."
	m := hswModel(t)
	bw8 := memBW(m, 8, 2, 2.5, 3.0)
	bw12 := memBW(m, 12, 2, 2.5, 3.0)
	if bw8 < 0.93*bw12 {
		t.Errorf("8-core DRAM bw %.1f is not near the 12-core %.1f", bw8, bw12)
	}
	bw2 := memBW(m, 2, 2, 2.5, 3.0)
	if bw2 > 0.5*bw12 {
		t.Errorf("2-core DRAM bw %.1f should be far from saturation %.1f", bw2, bw12)
	}
	// Saturated value lands near the calibrated ~62 GB/s achievable rate.
	if bw12 < 55 || bw12 > 68.2 {
		t.Errorf("saturated DRAM bw = %.1f GB/s, want ~62 (below the 68.2 peak)", bw12)
	}
}

func TestDRAMIndependentOfCoreFreqFromTenCores(t *testing.T) {
	// "...becomes independent of the core frequency if ten cores are
	// active."
	m := hswModel(t)
	lo := memBW(m, 10, 2, 1.2, 3.0)
	hi := memBW(m, 10, 2, 2.5, 3.0)
	if rel := lo / hi; rel < 0.99 {
		t.Errorf("10-core DRAM bw rel(1.2/2.5) = %.3f, want ~1.0", rel)
	}
}

func TestHTOnlyHelpsAtLowConcurrency(t *testing.T) {
	// Figure 8: "Using multiple threads per core only is beneficial for
	// low-concurrency scenarios."
	m := hswModel(t)
	low1 := memBW(m, 2, 1, 2.5, 3.0)
	low2 := memBW(m, 2, 2, 2.5, 3.0)
	if low2 <= low1*1.05 {
		t.Errorf("HT at 2 cores: %.1f vs %.1f GB/s, want a clear benefit", low2, low1)
	}
	full1 := memBW(m, 12, 1, 2.5, 3.0)
	full2 := memBW(m, 12, 2, 2.5, 3.0)
	if full2 > full1*1.02 {
		t.Errorf("HT at 12 cores: %.1f vs %.1f GB/s, want no benefit at saturation", full2, full1)
	}
}

func TestL3BandwidthTracksCoreFrequencyOnHaswell(t *testing.T) {
	// Figure 7a: "the L3 bandwidth of Haswell-EP strongly correlates
	// with the core frequency" even though the uncore is independent.
	m := hswModel(t)
	base := l3BW(m, 12, 2, 2.5, 3.0)
	lo := l3BW(m, 12, 2, 1.2, 3.0)
	rel := lo / base
	if rel > 0.75 {
		t.Errorf("L3 bw rel(1.2/2.5) = %.2f, want strong core-frequency dependence (<0.75)", rel)
	}
	if rel < 0.40 {
		t.Errorf("L3 bw rel(1.2/2.5) = %.2f, implausibly steep (<0.40)", rel)
	}
}

func TestL3LinearAtLowFreqFlattensAtHighFreq(t *testing.T) {
	// "it scales linearly with frequency for lower frequencies but
	// flattens at higher frequency levels without converging to a
	// specific plateau."
	m := hswModel(t)
	bw := func(f float64) float64 { return l3BW(m, 4, 2, f, 3.0) }
	slopeLow := (bw(1.4) - bw(1.2)) / 0.2
	slopeHigh := (bw(2.5) - bw(2.3)) / 0.2
	if slopeHigh >= slopeLow {
		t.Errorf("L3 bw slope must flatten: low %.2f, high %.2f GB/s/GHz", slopeLow, slopeHigh)
	}
	if slopeHigh <= 0 {
		t.Errorf("L3 bw must keep rising (no plateau): high slope %.2f", slopeHigh)
	}
}

func TestL3ScalesApproxLinearlyWithCores(t *testing.T) {
	m := hswModel(t)
	bw1 := l3BW(m, 1, 2, 2.5, 3.0)
	bw8 := l3BW(m, 8, 2, 2.5, 3.0)
	ratio := bw8 / bw1
	if ratio < 7 || ratio > 9 {
		t.Errorf("L3 scaling 1->8 cores = %.2fx, want ~8x", ratio)
	}
}

func TestSandyBridgeL3ExactlyLinearInFrequency(t *testing.T) {
	// Figure 7a / Section VII: linear scaling on Sandy Bridge, because
	// the uncore clock follows the core clock.
	m := snbModel(t)
	b26 := l3BW(m, 8, 2, 2.6, 2.6)
	b13 := l3BW(m, 8, 2, 1.3, 1.3)
	if rel := b13 / b26; math.Abs(rel-0.5) > 0.02 {
		t.Errorf("SNB L3 bw rel(1.3/2.6) = %.3f, want 0.5 (linear)", rel)
	}
}

func TestSandyBridgeDRAMCollapsesAtLowClock(t *testing.T) {
	// Figure 7b: "On Sandy Bridge-EP, the uncore frequency reflects the
	// core frequency, making DRAM bandwidth highly dependent on core
	// frequency."
	m := snbModel(t)
	base := memBW(m, 8, 2, 2.6, 2.6)
	lo := memBW(m, 8, 2, 1.2, 1.2)
	if rel := lo / base; rel > 0.6 {
		t.Errorf("SNB DRAM bw rel(1.2/2.6) = %.2f, want strong collapse (<0.6)", rel)
	}
}

func TestWestmereDRAMIndependentOfCoreClock(t *testing.T) {
	// Figure 7b: Westmere-EP's fixed uncore keeps DRAM bandwidth flat —
	// the behaviour Haswell-EP "is back at".
	m := wsmModel(t)
	fu := 2.666
	base := memBW(m, 6, 2, 2.93, fu)
	lo := memBW(m, 6, 2, 1.6, fu)
	if rel := lo / base; rel < 0.97 {
		t.Errorf("WSM DRAM bw rel(1.6/2.93) = %.3f, want ~flat", rel)
	}
}

func TestHaltedUncoreStopsTraffic(t *testing.T) {
	m := hswModel(t)
	res := m.Solve(streamLoads(m, workload.MemStream(), 2, 2, 2.5), 0)
	for i, r := range res {
		if r.Rate != 0 || r.StallFrac != 1 {
			t.Errorf("core %d made progress with a halted uncore: %+v", i, r)
		}
	}
}

func TestComputeKernelUnaffectedByMemoryContention(t *testing.T) {
	m := hswModel(t)
	// Mix: one compute core among eleven DRAM streamers.
	loads := streamLoads(m, workload.MemStream(), 12, 2, 2.5)
	loads[0].Prof = workload.Compute().ProfileAt(0)
	res := m.Solve(loads, 3.0)
	if res[0].Rate != res[0].UnconstrainedRate {
		t.Errorf("compute core throttled by others' DRAM traffic: %+v", res[0])
	}
	if res[0].StallFrac != 0 {
		t.Errorf("compute core shows stalls: %v", res[0].StallFrac)
	}
	if res[1].StallFrac <= 0.3 {
		t.Errorf("streamer should stall heavily under contention: %v", res[1].StallFrac)
	}
}

func TestStallFractionReflectsBoundedness(t *testing.T) {
	m := hswModel(t)
	stream := m.Solve(streamLoads(m, workload.MemStream(), 1, 1, 2.5), 3.0)[0]
	if stream.StallFrac < 0.3 {
		t.Errorf("single DRAM streamer stall fraction = %.2f, want memory-bound", stream.StallFrac)
	}
	busy := m.Solve(streamLoads(m, workload.BusyWait(), 1, 1, 2.5), 3.0)[0]
	if busy.StallFrac != 0 {
		t.Errorf("busy wait stall fraction = %.2f, want 0", busy.StallFrac)
	}
}

func TestIPCHelper(t *testing.T) {
	r := CoreResult{Rate: 5e9}
	if got := r.IPC(2.5); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("IPC = %v, want 2.0", got)
	}
	if r.IPC(0) != 0 {
		t.Error("IPC at zero frequency must be 0")
	}
}

func TestLatencyDecomposition(t *testing.T) {
	m := hswModel(t)
	// Raising the core clock with uncore fixed must reduce L3 latency,
	// but by less than proportionally (fixed uncore part).
	l12 := m.L3LatencyNanos(0, 1.2, 3.0)
	l25 := m.L3LatencyNanos(0, 2.5, 3.0)
	if l25 >= l12 {
		t.Fatalf("L3 latency must fall with core clock: %v vs %v", l25, l12)
	}
	if l12/l25 >= 2.5/1.2 {
		t.Errorf("L3 latency ratio %.2f should be sub-proportional to frequency ratio %.2f", l12/l25, 2.5/1.2)
	}
	if m.L3LatencyNanos(0, 0, 3.0) != 0 || m.L3LatencyNanos(0, 2.5, 0) != 0 {
		t.Error("degenerate frequencies must return 0")
	}
}

func TestFirestarterIPSMagnitude(t *testing.T) {
	// Table IV sanity: FIRESTARTER at ~2.3 GHz core / ~2.3 GHz uncore,
	// 12 cores HT, lands near 3.5 giga-instructions/s per processor...
	// wait: per processor GIPS is ~3.55 per *core*? The paper reports
	// ~3.55 GIPS as sampled on one core (all cores equal). Per core:
	// 3.1 IPC * 2.3 GHz ≈ 7.1 G? No — LIKWID reports per-core
	// instructions; 3.55 GIPS at 2.30 GHz means IPC ≈ 1.54 per thread
	// (two threads per core: core IPC 3.1). Our per-core rate:
	m := hswModel(t)
	res := m.Solve(streamLoads(m, workload.Firestarter(), 12, 2, 2.3), 2.33)
	ips := res[0].Rate
	if ips < 6.5e9 || ips > 7.5e9 {
		t.Errorf("FIRESTARTER per-core rate = %.2e, want ~7.1e9 (3.1 IPC x 2.3 GHz)", ips)
	}
	// Per-thread GIPS (what Table IV samples on one hardware thread).
	perThread := ips / 2
	if perThread < 3.2e9 || perThread > 3.8e9 {
		t.Errorf("per-thread GIPS = %.2f, want ~3.55", perThread/1e9)
	}
}

func TestNUMARemoteAccessesSlower(t *testing.T) {
	m := hswModel(t)
	bw := func(remote float64, cores int) float64 {
		k := workload.NUMAStream(remote)
		return TotalMemGBs(m.Solve(streamLoads(m, k, cores, 2, 2.5), 3.0))
	}
	// Single core: remote latency reduces achievable bandwidth.
	local1 := bw(0, 1)
	remote1 := bw(1, 1)
	if remote1 >= local1*0.85 {
		t.Errorf("remote single-core bw %.1f should be well below local %.1f", remote1, local1)
	}
	// Saturated: all-remote traffic caps at the QPI limit, far below the
	// local channel limit.
	localAll := bw(0, 12)
	remoteAll := bw(1, 12)
	if remoteAll > m.Spec.Mem.QPIGBs*1.02 {
		t.Errorf("remote aggregate %.1f exceeds the QPI capacity %.1f", remoteAll, m.Spec.Mem.QPIGBs)
	}
	if remoteAll >= localAll*0.6 {
		t.Errorf("remote saturation %.1f should be far below local %.1f", remoteAll, localAll)
	}
	// Interleaved 50/50 lands in between.
	half := bw(0.5, 12)
	if !(half > remoteAll && half < localAll) {
		t.Errorf("50%% remote bw %.1f should sit between %.1f and %.1f", half, remoteAll, localAll)
	}
}

func TestNUMAKernelName(t *testing.T) {
	if got := workload.NUMAStream(0.5).Name(); got != "DRAM read (50% remote)" {
		t.Errorf("name = %q", got)
	}
	if workload.NUMAStream(-1).ProfileAt(0).RemoteMemFrac != 0 {
		t.Error("negative remote fraction not clamped")
	}
	if workload.NUMAStream(2).ProfileAt(0).RemoteMemFrac != 1 {
		t.Error("excess remote fraction not clamped")
	}
}

func TestPointerChaseIsLatencyBound(t *testing.T) {
	m := hswModel(t)
	// One outstanding line: bandwidth = 64 B / memory latency.
	res := m.Solve(streamLoads(m, workload.PointerChase(), 1, 1, 2.5), 3.0)[0]
	lat := m.IMC.AccessLatencyNanos(0, 2.5, 3.0)
	want := 64.0 / lat // GB/s
	if math.Abs(res.MemGBs-want)/want > 0.02 {
		t.Errorf("pointer-chase bw = %.3f GB/s, want 64B/latency = %.3f", res.MemGBs, want)
	}
	// Far below the prefetched stream.
	stream := m.Solve(streamLoads(m, workload.MemStream(), 1, 1, 2.5), 3.0)[0]
	if res.MemGBs > stream.MemGBs/5 {
		t.Errorf("pointer chase %.2f should be several times slower than streaming %.2f",
			res.MemGBs, stream.MemGBs)
	}
	// HT doubles the chains in flight.
	ht := m.Solve(streamLoads(m, workload.PointerChase(), 1, 2, 2.5), 3.0)[0]
	if ht.MemGBs < res.MemGBs*1.3 {
		t.Errorf("two chains (%.3f) should clearly beat one (%.3f)", ht.MemGBs, res.MemGBs)
	}
}

func TestTriadBandwidthBound(t *testing.T) {
	m := hswModel(t)
	res := m.Solve(streamLoads(m, workload.Triad(), 12, 2, 2.5), 3.0)
	bw := TotalMemGBs(res)
	if bw < 55 || bw > 68.2 {
		t.Errorf("triad aggregate = %.1f GB/s, want DRAM-saturated", bw)
	}
}
