// Package eprof is the virtual-time energy/time profiler: every
// simulated Joule and nanosecond the power integrator produces is
// attributed to a hierarchical stack — experiment → phase → socket →
// core → component (core dynamic / leakage / uncore / DRAM) → active
// workload kernel → AVX license → p-state — in a deterministic,
// fork-aware profile.
//
// The paper's entire method is attributing measured package power to
// individual features; this package applies that method inside the
// simulator, with the two constraints the literature demands of any
// monitoring layer (Diamond/Stoico, "What Is the Cost of Energy
// Monitoring?"): its cost is measured and bounded (≤5% on the steady
// integration path, 0 allocs/op when disabled — see
// core.BenchmarkSystemRunSteadyState*), and it never perturbs the
// simulation (pure observation: no RNG draws, no events, no feedback).
//
// Design, mirroring the change-driven integrator it hooks:
//
//   - A Collector holds flat per-bucket accumulators (float64 joules,
//     int64 nanoseconds) keyed by an interned, comparable stack key.
//     Buckets are created only on full integration segments, where the
//     operating point is re-derived anyway; steady-state replay
//     segments execute a prebuilt attribution Plan — one multiply-add
//     per plan entry, no map lookups, no allocation.
//   - Leakage entries store the memoized temperature-independent base
//     and re-apply the current temperature factor with exactly the
//     arithmetic power.Replay uses, so the summed attribution tracks
//     the integrator's own totals to float-grouping precision.
//   - Collectors fork with the platform (core.System.Fork): the child
//     gets its own copy of the value arrays and interning tables. Child
//     deltas merge back in sweep-point order (internal/exp), which is
//     what makes the exported profile byte-identical across serial and
//     forked-parallel runs.
//
// Export goes through Build: quantized to integer nanojoules, rendered
// to frames, sorted — then WriteFolded (flamegraph stacks) or
// WritePprof (pprof protobuf, `go tool pprof` / Speedscope loadable).
package eprof

import (
	"fmt"
	"maps"
	"slices"
)

// Component is the power-model term a bucket attributes.
type Component uint8

const (
	// CompDynamic is active-core switching power (per core, carries the
	// kernel / AVX license / p-state detail frames).
	CompDynamic Component = iota
	// CompLeakage is per-core leakage (carries the c-state frame;
	// power-gated C6 cores leak nothing and get no bucket).
	CompLeakage
	// CompUncore is the socket's uncore (ring, LLC) power at the
	// current uncore frequency.
	CompUncore
	// CompStatic is the constant package floor.
	CompStatic
	// CompDRAM is the DRAM power behind the socket's IMCs (the RAPL
	// DRAM domain).
	CompDRAM
)

func (c Component) String() string {
	switch c {
	case CompDynamic:
		return "dynamic"
	case CompLeakage:
		return "leakage"
	case CompUncore:
		return "uncore"
	case CompStatic:
		return "static"
	case CompDRAM:
		return "dram"
	}
	return "unknown"
}

// key is the comparable interned form of one bucket's stack.
type key struct {
	phase  uint16
	socket int16
	cpu    int16 // -1 for socket-level components
	comp   Component
	cstate uint8  // c-state code for leakage buckets
	kernel uint16 // interned kernel name for dynamic buckets
	avx    bool
	mhz    uint32 // granted p-state (dynamic) or uncore clock (uncore)
}

// Stack is the rendered, export-facing form of a bucket's identity.
type Stack struct {
	Phase  string
	Socket int
	CPU    int // -1 for socket-level components
	Comp   Component
	CState string // leakage only
	Kernel string // dynamic only
	AVX    bool   // dynamic only
	MHz    uint32 // dynamic and uncore
}

// appendFrames renders the stack as root-first frames under the
// collector's root label.
func (s Stack) appendFrames(dst []string, root string) []string {
	dst = append(dst, root, s.Phase, fmt.Sprintf("socket%d", s.Socket))
	if s.CPU >= 0 {
		dst = append(dst, fmt.Sprintf("cpu%d", s.CPU))
	}
	dst = append(dst, s.Comp.String())
	switch s.Comp {
	case CompDynamic:
		lic := "sse"
		if s.AVX {
			lic = "avx"
		}
		dst = append(dst, s.Kernel, lic, fmt.Sprintf("%dMHz", s.MHz))
	case CompLeakage:
		dst = append(dst, s.CState)
	case CompUncore:
		dst = append(dst, fmt.Sprintf("%dMHz", s.MHz))
	}
	return dst
}

// PlanEntry is one prebuilt attribution: a bucket index plus the
// memoized rate that turns segment time into energy. The rate has two
// parts so the whole plan is linear in the two integrals Apply
// accumulates: energy = constW·∫dt + tfW·∫tempFactor·dt. Dynamic,
// uncore, static and DRAM terms are constW; leakage is tfW (the
// memoized temperature-independent base, pre-multiplied by the
// c-state's 0.3 scale where applicable), matching power.Replay's
// leakage arithmetic.
type PlanEntry struct {
	bucket int32
	constW float64
	tfW    float64
}

// Plan is one socket's attribution plan for the memoized integration
// segment, rebuilt on every full segment alongside the power memo it
// mirrors. Per-segment attribution is deferred: Apply only accumulates
// the segment integrals (∫dt, ∫tempFactor·dt, ∫dt in ns) — three adds
// regardless of entry count — and the integrals distribute through the
// entries into the collector's buckets when the plan is flushed (on
// rebuild, or when the collector is read). Deferral is what keeps the
// profiler inside its ≤5% steady-state budget; it is sound because
// every entry's power is constant across the plan's lifetime except
// for the shared temperature factor, which is exactly the second
// integral.
type Plan struct {
	entries []PlanEntry
	// Pending segment integrals since the last flush.
	sumDt   float64 // ∫dt seconds
	sumTfDt float64 // ∫tempFactor·dt seconds
	sumNS   int64   // ∫dt nanoseconds
	// col is the collector this plan is registered with (flush
	// reachability for collector-level reads); see Collector.SyncPlan.
	col *Collector
}

// Reset clears the plan's entries, keeping their backing. The caller
// (SyncPlan) has already flushed the pending integrals.
func (p *Plan) Reset() { p.entries = p.entries[:0] }

// Detach returns the plan's private backing and empties the plan —
// core.Socket fork harvesting (the recycled child's entries array is
// private by construction and must not be shared with the parent).
func (p *Plan) Detach() []PlanEntry {
	e := p.entries
	p.entries = nil
	return e
}

// Attach reseats harvested backing and zeroes everything else: a
// freshly forked socket starts with no pending integrals (the
// parent's pending stays with the parent) and no collector
// registration (the child re-registers on its first plan rebuild).
func (p *Plan) Attach(entries []PlanEntry) { *p = Plan{entries: entries[:0]} }

// AddConst appends a fixed-watts entry.
func (p *Plan) AddConst(bucket int32, watts float64) {
	p.entries = append(p.entries, PlanEntry{bucket: bucket, constW: watts})
}

// AddLeak appends a leakage entry: base watts at temperature factor 1
// plus the memoized c-state scale (1 or 0.3; 0-scale entries are the
// caller's responsibility to skip).
func (p *Plan) AddLeak(bucket int32, base, scale float64) {
	w := base
	if scale == 0.3 {
		w = 0.3 * base
	}
	p.entries = append(p.entries, PlanEntry{bucket: bucket, tfW: w})
}

// Len returns the number of plan entries.
func (p *Plan) Len() int { return len(p.entries) }

// Collector accumulates attributed energy and virtual time for one
// platform. Not safe for concurrent use — like the platform it hooks,
// a collector belongs to one goroutine; concurrency comes from forking.
type Collector struct {
	root string // root frame, e.g. "tab3#0"

	// Interning and bucket-identity tables (append-only, so a forked
	// child's tables extend its parent's).
	index     map[key]int32
	stacks    []Stack
	phases    []string
	phaseIdx  map[string]uint16
	kernels   []string
	kernelIdx map[string]uint16

	// Per-bucket accumulators. Energy is accumulated in float64 joules
	// in attribution-event order (quantization to integer nanojoules
	// happens at export); virtual time is exact int64 nanoseconds.
	energy []float64
	vtime  []int64

	// plans lists the attribution plans registered with this collector
	// (one per actively integrating socket), so collector-level reads
	// can flush their pending integrals first. Deliberately NOT carried
	// across Fork: a child's sockets re-register their own plans on
	// their first rebuild, and the parent's plans stay the parent's.
	plans []*Plan

	phase uint16 // current phase id

	// segments counts Apply calls (plain field, single-goroutine like
	// the socket's statReplay/statFull; core.System.flushObs reports
	// deltas to obs).
	segments uint64
}

// NewCollector returns an empty collector rooted at the given label,
// starting in phase "main".
func NewCollector(root string) *Collector {
	c := &Collector{
		root:      root,
		index:     map[key]int32{},
		phaseIdx:  map[string]uint16{},
		kernelIdx: map[string]uint16{},
	}
	c.phase = c.internPhase("main")
	return c
}

// Root returns the collector's root frame label.
func (c *Collector) Root() string { return c.root }

// Fork returns a copy for a forked platform, with its own value arrays
// and interning tables and no registered plans. Nil-safe (profiling
// disabled forks to profiling disabled).
func (c *Collector) Fork() *Collector {
	if c == nil {
		return nil
	}
	n := *c
	n.index = maps.Clone(c.index)
	n.stacks = slices.Clone(c.stacks)
	n.phases = slices.Clone(c.phases)
	n.phaseIdx = maps.Clone(c.phaseIdx)
	n.kernels = slices.Clone(c.kernels)
	n.kernelIdx = maps.Clone(c.kernelIdx)
	n.energy = slices.Clone(c.energy)
	n.vtime = slices.Clone(c.vtime)
	n.plans = nil
	return &n
}

func (c *Collector) internPhase(name string) uint16 {
	if id, ok := c.phaseIdx[name]; ok {
		return id
	}
	id := uint16(len(c.phases))
	c.phases = append(c.phases, name)
	c.phaseIdx[name] = id
	return id
}

func (c *Collector) internKernel(name string) uint16 {
	if id, ok := c.kernelIdx[name]; ok {
		return id
	}
	id := uint16(len(c.kernels))
	c.kernels = append(c.kernels, name)
	c.kernelIdx[name] = id
	return id
}

// SetPhase switches the phase frame new buckets are created under.
// The caller (core.System) must invalidate the sockets' attribution
// plans afterwards: existing plans point at old-phase buckets.
func (c *Collector) SetPhase(name string) { c.phase = c.internPhase(name) }

// bucket resolves (or creates) the bucket for an interned key,
// materializing its rendered stack on creation.
func (c *Collector) bucket(k key, render func() Stack) int32 {
	if b, ok := c.index[k]; ok {
		return b
	}
	b := int32(len(c.stacks))
	c.stacks = append(c.stacks, render())
	c.energy = append(c.energy, 0)
	c.vtime = append(c.vtime, 0)
	c.index[k] = b
	return b
}

// BucketDynamic resolves the bucket for an active core's dynamic power
// under the current phase.
func (c *Collector) BucketDynamic(socket, cpu int, kernel string, avx bool, mhz uint32) int32 {
	kid := c.internKernel(kernel)
	k := key{phase: c.phase, socket: int16(socket), cpu: int16(cpu),
		comp: CompDynamic, kernel: kid, avx: avx, mhz: mhz}
	return c.bucket(k, func() Stack {
		return Stack{Phase: c.phases[c.phase], Socket: socket, CPU: cpu,
			Comp: CompDynamic, Kernel: kernel, AVX: avx, MHz: mhz}
	})
}

// BucketLeakage resolves the bucket for a core's leakage in the given
// c-state under the current phase.
func (c *Collector) BucketLeakage(socket, cpu int, cstateCode uint8, cstateName string) int32 {
	k := key{phase: c.phase, socket: int16(socket), cpu: int16(cpu),
		comp: CompLeakage, cstate: cstateCode}
	return c.bucket(k, func() Stack {
		return Stack{Phase: c.phases[c.phase], Socket: socket, CPU: cpu,
			Comp: CompLeakage, CState: cstateName}
	})
}

// BucketSocket resolves a socket-level bucket (uncore, static, dram)
// under the current phase. mhz carries the uncore clock for
// CompUncore and is ignored otherwise.
func (c *Collector) BucketSocket(socket int, comp Component, mhz uint32) int32 {
	k := key{phase: c.phase, socket: int16(socket), cpu: -1, comp: comp, mhz: mhz}
	return c.bucket(k, func() Stack {
		return Stack{Phase: c.phases[c.phase], Socket: socket, CPU: -1,
			Comp: comp, MHz: mhz}
	})
}

// Apply accumulates one integration segment into the plan's pending
// integrals. This is the steady-state hot path: three adds and a
// counter, independent of plan size, no barriers, no allocation. The
// temperature factor must be the one the integrator's own Replay used
// for this segment (i.e. sampled before UpdateTemp).
func (c *Collector) Apply(p *Plan, dtSec float64, dtNS int64, tempFactor float64) {
	p.sumDt += dtSec
	p.sumTfDt += tempFactor * dtSec
	p.sumNS += dtNS
	c.segments++
}

// flushPlan distributes a plan's pending integrals through its entries
// into the buckets.
func (c *Collector) flushPlan(p *Plan) {
	if p.sumNS == 0 {
		return
	}
	for i := range p.entries {
		e := &p.entries[i]
		c.energy[e.bucket] += e.constW*p.sumDt + e.tfW*p.sumTfDt
		c.vtime[e.bucket] += p.sumNS
	}
	p.sumDt, p.sumTfDt, p.sumNS = 0, 0, 0
}

// flushAll flushes every registered plan — the prelude to any
// collector-level read.
func (c *Collector) flushAll() {
	for _, p := range c.plans {
		c.flushPlan(p)
	}
}

// SyncPlan prepares a socket's plan for a rebuild against this
// collector: pending integrals flush to the plan's previous owner
// (they accrued under the old entries), and the plan registers with
// this collector if it wasn't already — which is how a forked child's
// sockets (whose plan ownership was cleared by Attach) enroll with the
// child's cloned collector.
func (c *Collector) SyncPlan(p *Plan) {
	if p.col != c {
		if p.col != nil {
			p.col.flushPlan(p)
		}
		p.col = c
		c.plans = append(c.plans, p)
		return
	}
	c.flushPlan(p)
}

// Segments returns the cumulative count of attributed segments.
func (c *Collector) Segments() uint64 { return c.segments }

// NumBuckets returns the number of attribution buckets.
func (c *Collector) NumBuckets() int { return len(c.stacks) }

// TotalEnergyJ sums every bucket's accumulated energy in joules
// (pending plan integrals included).
func (c *Collector) TotalEnergyJ() float64 {
	c.flushAll()
	t := 0.0
	for _, e := range c.energy {
		t += e
	}
	return t
}

// Sample is one bucket's identity and accumulated values — the unit of
// fork-delta extraction and merge.
type Sample struct {
	Stack  Stack
	Energy float64 // joules
	VTime  int64   // nanoseconds
}

// DeltaFrom extracts this collector's accumulation since it was forked
// from parent: shared-prefix buckets (identical identities by the
// append-only table contract) are differenced, new buckets are taken
// whole, zero deltas are dropped. The parent must not have accumulated
// since the fork (the forkMap contract: the parent is read-only while
// its points run). Flushes this collector's own plans but never the
// parent's — the parent's arrays must stay untouched while concurrent
// sweep points read them.
func (c *Collector) DeltaFrom(parent *Collector) []Sample {
	c.flushAll()
	var out []Sample
	np := len(parent.energy)
	for i := range c.energy {
		e, v := c.energy[i], c.vtime[i]
		if i < np {
			e -= parent.energy[i]
			v -= parent.vtime[i]
		}
		if e != 0 || v != 0 {
			out = append(out, Sample{Stack: c.stacks[i], Energy: e, VTime: v})
		}
	}
	return out
}

// Merge folds extracted deltas into this collector, creating buckets
// as needed. Callers must merge point deltas in point order — float
// accumulation order is part of the determinism contract.
func (c *Collector) Merge(samples []Sample) {
	c.flushAll()
	for _, s := range samples {
		b := c.bucketForStack(s.Stack)
		c.energy[b] += s.Energy
		c.vtime[b] += s.VTime
	}
}

// bucketForStack re-interns a rendered stack (the merge path).
func (c *Collector) bucketForStack(s Stack) int32 {
	k := key{phase: c.internPhase(s.Phase), socket: int16(s.Socket),
		cpu: int16(s.CPU), comp: s.Comp, avx: s.AVX, mhz: s.MHz}
	switch s.Comp {
	case CompDynamic:
		k.kernel = c.internKernel(s.Kernel)
	case CompLeakage:
		// The c-state code is not part of the rendered stack; the name
		// is the identity here. Distinct names never share a code, so
		// interning by name preserves bucket distinctness.
		k.cstate = c.internCStateName(s.CState)
	}
	return c.bucket(k, func() Stack { return s })
}

// internCStateName maps a c-state name to a stable small code for the
// merge path's key. Kernel-interning reuse keeps it allocation-light.
func (c *Collector) internCStateName(name string) uint8 {
	return uint8(c.internKernel("cstate:" + name))
}
