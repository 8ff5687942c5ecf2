// Package cache implements the analytic memory-hierarchy performance
// model: given each active core's frequency, thread count and workload
// profile plus the uncore frequency, it solves for achieved instruction
// rates, L3/DRAM bandwidth and stall fractions.
//
// The model is latency×parallelism based: a core can keep a limited
// number of cache lines in flight (line-fill buffers, augmented by the
// hardware prefetchers), so its uncore-traffic rate is bounded by
// lines·64B / latency. Latencies decompose into core-clocked,
// uncore-clocked (ring hops, L3 slices, home agents) and fixed DRAM
// components — the decomposition that produces the paper's Figure 7/8
// shapes: L3 bandwidth tracking the core clock on Haswell-EP, DRAM
// bandwidth saturating at 8 cores and becoming independent of the core
// clock at full concurrency, and the collapse of both at low clocks on
// the coupled-uncore Sandy Bridge-EP.
package cache

import (
	"fmt"
	"math"

	"hswsim/internal/mem"
	"hswsim/internal/ring"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// CoreLoad describes one active core for the solver.
type CoreLoad struct {
	CoreID  int
	FreqGHz float64
	Threads int // 1 or 2 (Hyper-Threading)
	Prof    workload.Profile
}

// CoreResult is the solved steady-state behaviour of one core.
type CoreResult struct {
	// Rate is the achieved instruction rate (instructions/second).
	Rate float64
	// UnconstrainedRate is what the core would retire with a perfect
	// memory system at this frequency.
	UnconstrainedRate float64
	// L3GBs and MemGBs are the core's achieved read bandwidths.
	L3GBs, MemGBs float64
	// StallFrac is the fraction of cycles lost to memory stalls.
	StallFrac float64
}

// IPC returns the achieved instructions per core cycle.
func (r CoreResult) IPC(freqGHz float64) float64 {
	if freqGHz <= 0 {
		return 0
	}
	return r.Rate / (freqGHz * 1e9)
}

// Model is the per-package hierarchy solver.
type Model struct {
	Spec *uarch.Spec
	Topo *ring.Topology
	IMC  *mem.IMC
	// Precomputed per-core ring hop costs (uncore cycles) — these are
	// pure topology functions and sit on the solver's hot path.
	l3Hops  []float64
	imcHops []float64
	// ringClass[c] numbers the distinct (l3Hops, imcHops) bit patterns
	// in core order: cores of one class solve identically.
	ringClass []int
}

// NewModel builds the solver for a package.
func NewModel(spec *uarch.Spec, topo *ring.Topology) *Model {
	m := &Model{Spec: spec, Topo: topo, IMC: mem.New(spec, topo)}
	n := topo.Cores()
	m.l3Hops = make([]float64, n)
	m.imcHops = make([]float64, n)
	m.ringClass = make([]int, n)
	classes := 0
	for c := 0; c < n; c++ {
		m.l3Hops[c] = topo.AvgL3HopCycles(c)
		m.imcHops[c] = topo.AvgIMCHopCycles(c)
		m.ringClass[c] = classes
		for d := 0; d < c; d++ {
			if math.Float64bits(m.l3Hops[d]) == math.Float64bits(m.l3Hops[c]) &&
				math.Float64bits(m.imcHops[d]) == math.Float64bits(m.imcHops[c]) {
				m.ringClass[c] = m.ringClass[d]
				break
			}
		}
		if m.ringClass[c] == classes {
			classes++
		}
	}
	return m
}

// RingClass returns the core's ring class: cores whose L3 and IMC hop
// costs are bitwise equal share one, so given equal clock, threads and
// profile they solve to the same result. The 12-core die has two
// classes, cores 0–7 and 8–11. Core ids beyond the topology (truncated
// SKUs) share class -1.
func (m *Model) RingClass(core int) int {
	if core >= 0 && core < len(m.ringClass) {
		return m.ringClass[core]
	}
	return -1
}

// hop lookups tolerate core ids beyond the topology (truncated SKUs).
func (m *Model) l3Hop(core int) float64 {
	if core >= 0 && core < len(m.l3Hops) {
		return m.l3Hops[core]
	}
	return 0
}

func (m *Model) imcHop(core int) float64 {
	if core >= 0 && core < len(m.imcHops) {
		return m.imcHops[core]
	}
	return 0
}

// L3LatencyNanos returns the average L3 load-to-use latency for a core.
func (m *Model) L3LatencyNanos(core int, coreGHz, uncoreGHz float64) float64 {
	if coreGHz <= 0 || uncoreGHz <= 0 {
		return 0
	}
	mm := &m.Spec.Mem
	return mm.L3CoreCycles/coreGHz + (mm.L3UncoreCycles+m.l3Hop(core))/uncoreGHz
}

// memLatencyNanos mirrors IMC.AccessLatencyNanos with precomputed hops.
func (m *Model) memLatencyNanos(core int, coreGHz, uncoreGHz float64) float64 {
	if coreGHz <= 0 || uncoreGHz <= 0 {
		return 0
	}
	mm := &m.Spec.Mem
	return mm.MemCoreCycles/coreGHz + (mm.MemUncoreCycles+m.imcHop(core))/uncoreGHz + mm.MemDRAMNanos
}

// L3CapacityGBs is the aggregate L3/ring transfer capacity at the given
// uncore frequency.
func (m *Model) L3CapacityGBs(uncoreGHz float64) float64 {
	if uncoreGHz <= 0 {
		return 0
	}
	return m.Spec.Mem.UncoreBytesPerCycle * float64(m.Spec.Cores) * uncoreGHz
}

// inFlightLines returns the effective number of cache lines a core keeps
// outstanding: per-thread demand misses plus prefetcher coverage, capped
// by the line-fill buffers.
func (m *Model) inFlightLines(threads int) float64 {
	mm := &m.Spec.Mem
	lines := float64(mm.MLPPerThread*threads) + mm.PrefetchLines
	if max := float64(mm.LFBPerCore); lines > max {
		lines = max
	}
	return lines
}

// Solve computes the steady-state rates for a set of active cores
// sharing one package's uncore. Cores not listed are idle.
func (m *Model) Solve(loads []CoreLoad, uncoreGHz float64) []CoreResult {
	return m.SolveInto(nil, loads, uncoreGHz)
}

// SolveInto is Solve with a caller-provided result buffer, one load
// and one result per active core.
func (m *Model) SolveInto(dst []CoreResult, loads []CoreLoad, uncoreGHz float64) []CoreResult {
	return m.SolveShared(dst, loads, nil, uncoreGHz)
}

// SolveShared solves active cores grouped into operating points (hot
// path): points holds one load per distinct point, and of holds, in
// core order, the point index of every active core (nil means one core
// per point). Each point is solved and rescaled once, and the result
// buffer holds one result per point. Shared-capacity demand is summed
// over the cores in core order, so every result is bitwise what
// SolveInto returns for the expanded per-core loads, provided the cores
// of a point agree in clock, threads, profile and RingClass.
func (m *Model) SolveShared(dst []CoreResult, points []CoreLoad, of []int, uncoreGHz float64) []CoreResult {
	res := dst[:0]
	if cap(dst) < len(points) {
		res = make([]CoreResult, 0, len(points))
	}
	// Pass 1: per-point latency/MLP limits. Loads are passed by pointer:
	// a CoreLoad embeds the 80-byte Profile.
	for i := range points {
		res = append(res, m.solveCore(&points[i], uncoreGHz))
	}
	// Pass 2: shared-resource capacity. Scale memory-traffic points by a
	// common factor when aggregate demand exceeds capacity (fair
	// bandwidth sharing), then recompute dependent quantities.
	m.applyCapacity(points, of, res, uncoreGHz)
	return res
}

func (m *Model) solveCore(ld *CoreLoad, uncoreGHz float64) CoreResult {
	p := &ld.Prof
	ipc := p.IPC1
	if ld.Threads >= 2 {
		ipc = p.IPC2
	}
	r0 := ipc * ld.FreqGHz * 1e9
	out := CoreResult{UnconstrainedRate: r0, Rate: r0}
	if r0 <= 0 {
		out.Rate = 0
		return out
	}
	// Soft uncore-latency dependence: part of the IPC tracks the uncore
	// clock even below any bandwidth cap.
	if p.UncoreSens > 0 && p.UncoreRefGHz > 0 {
		ratio := uncoreGHz / p.UncoreRefGHz
		if ratio > 1 {
			ratio = 1
		}
		if ratio < 0 {
			ratio = 0
		}
		out.Rate *= 1 - p.UncoreSens*(1-ratio)
	}
	bytesPerInst := p.L3BytesPerInst + p.MemBytesPerInst
	if bytesPerInst > 0 {
		if uncoreGHz <= 0 {
			// Uncore halted: no L3/DRAM service at all.
			out.Rate = 0
			out.StallFrac = 1
			return out
		}
		// Average outstanding-line latency weighted by traffic mix.
		// Remote (NUMA) DRAM accesses pay the QPI latency adder.
		latL3 := m.L3LatencyNanos(ld.CoreID, ld.FreqGHz, uncoreGHz)
		latM := m.memLatencyNanos(ld.CoreID, ld.FreqGHz, uncoreGHz) +
			p.RemoteMemFrac*m.Spec.Mem.QPIExtraNanos
		lat := (p.L3BytesPerInst*latL3 + p.MemBytesPerInst*latM) / bytesPerInst
		if lat > 0 {
			lines := m.inFlightLines(ld.Threads)
			if p.MLPOverride > 0 {
				// Dependent access chains cannot fill the LFBs; each
				// hardware thread runs its own chain.
				if cap := float64(p.MLPOverride * ld.Threads); cap < lines {
					lines = cap
				}
			}
			maxBytesPerSec := lines * float64(m.Spec.Cache.LineBytes) / (lat * 1e-9)
			cap := maxBytesPerSec / bytesPerInst
			if cap < out.Rate {
				out.Rate = cap
			}
		}
	}
	out.L3GBs = out.Rate * p.L3BytesPerInst / 1e9
	out.MemGBs = out.Rate * p.MemBytesPerInst / 1e9
	out.StallFrac = 1 - out.Rate/r0
	return out
}

// demand sums the QPI (remote DRAM), DRAM and L3 bandwidth demand over
// the active cores in core order, in one pass.
func demand(points []CoreLoad, of []int, res []CoreResult) (remote, mem, l3 float64) {
	if of == nil {
		for i := range res {
			remote += res[i].MemGBs * points[i].Prof.RemoteMemFrac
			mem += res[i].MemGBs
			l3 += res[i].L3GBs
		}
		return remote, mem, l3
	}
	for _, p := range of {
		remote += res[p].MemGBs * points[p].Prof.RemoteMemFrac
		mem += res[p].MemGBs
		l3 += res[p].L3GBs
	}
	return remote, mem, l3
}

func (m *Model) applyCapacity(points []CoreLoad, of []int, res []CoreResult, uncoreGHz float64) {
	remoteDemand, memDemand, l3Demand := demand(points, of, res)
	// QPI capacity: remote (NUMA) traffic shares the socket interconnect.
	if capQPI := m.Spec.Mem.QPIGBs; capQPI > 0 && remoteDemand > capQPI {
		scale := capQPI / remoteDemand
		for i := range res {
			p := &points[i].Prof
			if p.MemBytesPerInst > 0 && p.RemoteMemFrac > 0 {
				// Only the remote share slows down.
				remoteScale := 1 - p.RemoteMemFrac*(1-scale)
				m.rescale(&res[i], &points[i], scaleFactorForMem(p, remoteScale))
			}
		}
		// The rescale moved the DRAM and L3 demand the next stages read.
		_, memDemand, l3Demand = demand(points, of, res)
	}
	// DRAM capacity.
	if capMem := m.IMC.StreamCapacityGBs(uncoreGHz); memDemand > capMem && memDemand > 0 {
		scale := capMem / memDemand
		for i := range res {
			if points[i].Prof.MemBytesPerInst > 0 {
				m.rescale(&res[i], &points[i], scaleFactorForMem(&points[i].Prof, scale))
			}
		}
		_, _, l3Demand = demand(points, of, res)
	}
	// L3/ring capacity.
	if capL3 := m.L3CapacityGBs(uncoreGHz); l3Demand > capL3 && l3Demand > 0 {
		scale := capL3 / l3Demand
		for i := range res {
			if points[i].Prof.L3BytesPerInst > 0 {
				m.rescale(&res[i], &points[i], scale)
			}
		}
	}
}

// scaleFactorForMem converts a DRAM-bandwidth scale into an instruction
// rate scale: cores whose traffic is mostly L3 are barely slowed by a
// DRAM bottleneck.
func scaleFactorForMem(p *workload.Profile, memScale float64) float64 {
	total := p.L3BytesPerInst + p.MemBytesPerInst
	if total <= 0 {
		return 1
	}
	memShare := p.MemBytesPerInst / total
	return 1 - memShare*(1-memScale)
}

func (m *Model) rescale(r *CoreResult, ld *CoreLoad, factor float64) {
	if factor >= 1 {
		return
	}
	r.Rate *= factor
	r.L3GBs = r.Rate * ld.Prof.L3BytesPerInst / 1e9
	r.MemGBs = r.Rate * ld.Prof.MemBytesPerInst / 1e9
	if r.UnconstrainedRate > 0 {
		r.StallFrac = 1 - r.Rate/r.UnconstrainedRate
	}
}

// String describes the model configuration.
func (m *Model) String() string {
	return fmt.Sprintf("cache model for %s (%d cores, %d KiB L2, %.1f MiB L3)",
		m.Spec.Model, m.Spec.Cores, m.Spec.Cache.L2Bytes>>10,
		float64(m.Spec.L3Bytes())/(1<<20))
}
