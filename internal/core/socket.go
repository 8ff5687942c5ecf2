package core

import (
	"math"

	"hswsim/internal/cache"
	"hswsim/internal/cstate"
	"hswsim/internal/eprof"
	"hswsim/internal/fivr"
	"hswsim/internal/pcu"
	"hswsim/internal/perfctr"
	"hswsim/internal/power"
	"hswsim/internal/rapl"
	"hswsim/internal/ring"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
)

// Socket is one processor package.
type Socket struct {
	sys   *System
	Index int

	Spec  *uarch.Spec
	Topo  *ring.Topology
	Cache *cache.Model

	// The stateful components are embedded by value: forking a socket is
	// a struct copy (plus a handful of fixups) instead of a pointer-clone
	// per component. Fork copies the slices of those with internal
	// slices (PCU) into the child's own storage.
	Power power.PackageModel
	RAPL  rapl.Package
	PCU   pcu.PCU

	uncoreReg fivr.Regulator
	uncoreMHz uarch.MHz
	uncoreCtr perfctr.Uncore
	mbvr      fivr.MBVR

	// powerLimit and uncoreLimit are the raw MSR_PKG_POWER_LIMIT and
	// MSR_UNCORE_RATIO_LIMIT words last written (see WriteMSR); the
	// PCU holds what they decode to.
	powerLimit  uint64
	uncoreLimit uint64

	cores []*Core
	// residSlab backs every core's p-state residency bins in one
	// contiguous allocation (cores × residencyBins, subsliced with full
	// capacity caps per core). It is always private to this socket:
	// newSocket allocates it and forkInto copies the parent's slab into
	// the child's own (recycled) one.
	residSlab []sim.Time
	pkgCState cstate.PkgState
	// prevDeepState/leftDeepAt track a just-exited package sleep state
	// so wakes arriving within the exit window still classify as
	// "remote idle" (see System.refreshPackageStates).
	prevDeepState cstate.PkgState
	leftDeepAt    sim.Time

	pcuPhase sim.Time
	rng      sim.RNG
	// grantsSettled: a grant pass has run and no transition has landed
	// since (Core.onComplete clears it). Until a landing, a replayed PCU
	// decision would change nothing — it carries the targets and AVX
	// modes that pass applied, and an in-flight core ignores grants —
	// so pcuTick skips the pass (see debugNoGrantSkip).
	grantsSettled bool
	// tickEv identifies the pending grid-tick event so Fork can re-arm
	// it declaratively on the child engine (the callback itself is the
	// System's closure-free HandleEvent dispatch).
	tickEv sim.EventID
	// Energy accumulated since the last PCU tick: the RAPL input to the
	// TDP controller.
	tickJoules  float64
	lastTick    sim.Time
	lastPkgPowW float64

	// Change-driven integration state: opDirty is raised by every
	// operating-point mutation (c-state, p-state, uncore, AVX mode,
	// kernel placement); while it stays down and the workload profiles
	// hold steady, integrate replays the memoized segment instead of
	// re-solving the memory hierarchy and power model.
	opDirty   bool
	segValid  bool
	memo      power.ComputeMemo
	segEV     rapl.ModelInputs
	segDRAMW  float64
	segUncGHz float64

	// regroup is raised when an input of the operating-point table's
	// grouping changes: a kernel or thread assignment (which is also how
	// a core enters or leaves C0, see Core.assign), or a fork. The next
	// full segment then rebuilds the table. landed is raised when a
	// p-state lands on one of the socket's cores (Core.onComplete); the
	// next full segment moves the cores whose clock left their point's
	// and keeps the rest of the table.
	regroup bool
	landed  bool

	// Change-driven integration accounting: replay vs full-recompute
	// segment counts, the full segments that rebuilt the operating-point
	// table, and the core loads and operating points the full segments
	// solved. Plain fields (a socket integrates on one goroutine);
	// System.flushObs pushes deltas to the obs registry at run
	// boundaries, so the per-segment path stays atomic-free. Forked
	// sockets start at zero and count their own segments.
	statReplay, statFull, statRegroup, statLoads, statPoints                                    uint64
	statReplayFlushed, statFullFlushed, statRegroupFlushed, statLoadsFlushed, statPointsFlushed uint64

	// eplan is the energy profiler's attribution plan for the memoized
	// segment: one prebuilt (bucket, rate) entry per power-model term,
	// rebuilt alongside the memo on full segments and executed on every
	// segment (see rebuildEplan). Only populated while System.eprof is
	// armed; its backing array is harvested/reseated by forkInto like
	// the other scratch buffers.
	eplan eprof.Plan

	// The operating-point table, kept from one full segment to the next
	// (see groupPoints): coresBuf lists the active cores in core order
	// and pointOf the operating point each runs at; pointsBuf holds one
	// solver load per point and pointsMeta its grouping key and
	// per-point derivations. Below it, scratch that every full segment
	// rewrites: resultsBuf holds one solver result per point.
	coresBuf   []*Core
	pointOf    []int
	pointsBuf  []cache.CoreLoad
	pointsMeta []opPoint
	statesBuf  []power.CoreState
	resultsBuf []cache.CoreResult
	telCores   []pcu.CoreTelemetry

	// tel is the PCU input each grid tick fills in place (see telemetry);
	// its Cores always point at telCores.
	tel pcu.Telemetry
	// Telemetry version cache: telVersion is bumped by every mutation
	// that can move a per-core telemetry field (kernel assignment,
	// c-state change, p-state request, EPB write, a full integration
	// segment refreshing the stall fractions). While the version holds
	// on a constSteady socket, whose active cores' profiles cannot
	// drift, the per-core telemetry slice and tel's MemoryStalls are
	// reused as-is and the PCU is told so (Telemetry.Unchanged),
	// skipping both the rebuild and the PCU's own per-core comparison.
	// telBuilt == 0 means never built (versions start at 1); forkInto
	// resets it because the harvested child buffer holds stale contents.
	telVersion uint64
	telBuilt   uint64

	// constSteady: at the last full segment every active core ran a
	// constant-profile kernel at slowdown 1. Neither can change before
	// the next full segment (only Core.assign changes a kernel or starts
	// an AVX ramp, and it dirties the socket), so steadyAt holds without
	// visiting a core (see debugNoConstSteady), and it keys the
	// telemetry version cache.
	constSteady bool
}

// telChanged invalidates the cached per-core telemetry.
func (sk *Socket) telChanged() { sk.telVersion++ }

// markDirty invalidates the memoized integration segment. Every
// operating-point mutation must raise it after integrating up to the
// mutation instant.
func (sk *Socket) markDirty() { sk.opDirty = true }

func newSocket(sys *System, index int, topo *ring.Topology) *Socket {
	spec := sys.cfg.Spec
	rng := sys.rng.Fork(uint64(index) + 0x50)
	sk := &Socket{
		sys:   sys,
		Index: index,
		Spec:  spec,
		Topo:  topo,
		// Power-on values: the limit enabled at the rated TDP, the
		// uncore bounded by the spec's range.
		powerLimit:  uint64(spec.Power.TDP*8) | 1<<15,
		uncoreLimit: uint64(spec.UncoreMaxMHz/100) | uint64(spec.UncoreMinMHz/100)<<8,
	}
	sk.Cache = cache.NewModel(spec, topo)
	// Socket silicon lottery: socket 0 is the less efficient part
	// (Section III: lower sustained turbo on processor 0).
	ceff := 1.0
	if index == 0 {
		ceff = 1.02
	}
	sk.Power = *power.NewPackageModel(&spec.Power, ceff, sys.cfg.AmbientC)
	sk.RAPL = *rapl.NewPackage(spec, rng.Normal(0, 0.003))
	// Independent per-package grid phase (Section VI-A: packages
	// transition independently).
	sk.pcuPhase = sim.Time(rng.Intn(int(500 * sim.Microsecond)))
	// Capture the stream after the construction draws; subsequent draws
	// (grid-tick jitter, core regulator forks) go through sk.rng.
	sk.rng = *rng
	cfg := pcu.Config{
		Spec: spec, Socket: index, GridPhase: sk.pcuPhase,
		TurboEnabled: sys.cfg.TurboEnabled, EETEnabled: sys.cfg.EETEnabled,
		UFSEnabled: sys.cfg.UFSEnabled, PCPSEnabled: sys.cfg.PCPSEnabled,
		BudgetTrading: sys.cfg.BudgetTrading, TDPOverrideW: sys.cfg.TDPOverrideW,
		ThrottleTempC: sys.cfg.ThrottleTempC,
	}
	sk.PCU = *pcu.New(cfg)
	sk.uncoreReg = *fivr.NewRegulator(&spec.Power, 0, spec.PStateSwitchUS, sk.rng.Fork(0xB0))
	sk.uncoreMHz = spec.UncoreMinMHz
	sk.mbvr = *fivr.NewMBVR()

	offsets := fivr.CoreOffsets(spec.Cores, index, sys.cfg.Seed)
	for i := 0; i < spec.Cores; i++ {
		sk.cores = append(sk.cores, newCore(sk, i, offsets[i]))
	}
	bins := residencyBins(spec)
	sk.residSlab = make([]sim.Time, spec.Cores*bins)
	for i, c := range sk.cores {
		c.resid.pstate = sk.residSlab[i*bins : (i+1)*bins : (i+1)*bins]
	}
	sk.opDirty = true
	sk.regroup = true
	sk.telVersion = 1
	return sk
}

// Cores returns the socket's core count.
func (sk *Socket) Cores() int { return len(sk.cores) }

// UncoreMHz returns the current uncore clock (0 = halted).
func (sk *Socket) UncoreMHz() uarch.MHz {
	if cstate.UncoreHalted(sk.pkgCState) {
		return 0
	}
	return sk.uncoreMHz
}

// MBVR returns the socket's mainboard voltage regulator model.
func (sk *Socket) MBVR() *fivr.MBVR { return &sk.mbvr }

// PkgCState returns the package c-state.
func (sk *Socket) PkgCState() cstate.PkgState { return sk.pkgCState }

// UncoreSnapshot captures the UBOXFIX counter.
func (sk *Socket) UncoreSnapshot() perfctr.UncoreSnapshot {
	sk.sys.integrateTo(sk.sys.Engine.Now())
	return sk.uncoreCtr.Snapshot(sk.sys.Engine.Now())
}

// scheduleNextTick arms the next PCU grid opportunity with the
// configured jitter ("regular intervals of about 500 us").
func (sk *Socket) scheduleNextTick(at sim.Time) {
	if at < sk.sys.Engine.Now() {
		at = sk.sys.Engine.Now()
	}
	sk.tickEv = sk.sys.Engine.AtHandler(at, sk.sys, sk.sys.CPUs()+sk.Index)
}

// gridTick is the persistent PCU grid event: evaluate, then re-arm with
// the jittered period. The jitter keeps ticks off a fixed grid, so this
// stays an At chain rather than an Every series.
func (sk *Socket) gridTick(now sim.Time) {
	sk.pcuTick(now)
	period := sk.PCU.GridPeriod()
	if period <= 0 {
		period = 500 * sim.Microsecond // control loop cadence on pre-Haswell parts
	}
	next := sk.rng.Jitter(period, sk.sys.cfg.GridJitter)
	sk.scheduleNextTick(now + next)
}

// pcuTick runs one PCU evaluation and applies the decision.
func (sk *Socket) pcuTick(now sim.Time) {
	sk.sys.integrateTo(now)

	// Measured package power over the last grid interval.
	if dt := now - sk.lastTick; dt > 0 {
		sk.lastPkgPowW = sk.tickJoules / dt.Seconds()
	}
	sk.tickJoules = 0
	sk.lastTick = now

	// The processor drives the mainboard regulator's power state from
	// its power estimate (Section II-B).
	sk.mbvr.UpdateLoad(sk.lastPkgPowW)

	dec := sk.PCU.Evaluate(now, sk.telemetry(now))
	if debugNoGrantSkip || !dec.Replayed || !sk.grantsSettled {
		sk.applyGrants(now, dec)
	}

	// Apply the uncore grant.
	if dec.UncoreMHz != sk.uncoreMHz && !cstate.UncoreHalted(sk.pkgCState) {
		if tr := sk.sys.trace; tr != nil {
			tr.Beginf(now, trace.SpanUncore, sk.Index, -1, "%v", dec.UncoreMHz)
		}
		sk.uncoreMHz = dec.UncoreMHz
		sk.uncoreReg.SetFrequency(dec.UncoreMHz)
		sk.markDirty()
	}
}

// debugNoGrantSkip makes every grid tick run the grant pass, settled or
// not (test seam: the segment-cost equivalence test runs the same
// scenario with and without it and requires identical output).
var debugNoGrantSkip = false

// applyGrants applies a PCU decision's AVX modes and core frequency
// grants, then marks the grants settled.
func (sk *Socket) applyGrants(now sim.Time, dec *pcu.Decision) {
	single := uarch.MHz(0)
	if !sk.sys.cfg.PCPSEnabled {
		// Single frequency domain: everyone gets the fastest grant.
		for _, f := range dec.CoreTargetMHz {
			single = max(single, f)
		}
	}
	for i, c := range sk.cores {
		if dec.AVXMode[i] != c.avxMode {
			if tr := sk.sys.trace; tr != nil {
				if dec.AVXMode[i] {
					tr.Begin(now, trace.SpanAVX, sk.Index, c.CPU, "avx")
				} else {
					tr.End(now, trace.SpanAVX, sk.Index, c.CPU)
				}
			}
			sk.markDirty()
		}
		c.avxMode = dec.AVXMode[i]
		target := dec.CoreTargetMHz[i]
		if !sk.sys.cfg.PCPSEnabled {
			target = single
		}
		c.applyGrant(now, target)
	}
	sk.grantsSettled = true
}

// telemetry gathers the PCU inputs into the socket's own Telemetry and
// returns it.
func (sk *Socket) telemetry(now sim.Time) *pcu.Telemetry {
	if sk.telCores == nil {
		sk.telCores = make([]pcu.CoreTelemetry, len(sk.cores))
	}
	tel := &sk.tel
	// Re-pointed on every build: a fork's struct copy leaves the parent's
	// slice here.
	tel.Cores = sk.telCores
	tel.PkgPowerW = sk.lastPkgPowW
	tel.PkgCState = sk.pkgCState
	tel.TempC = sk.Power.TempC()
	sysMax := sk.sys.maxActiveRequest()
	if sk.constSteady && sk.telBuilt == sk.telVersion && sysMax == tel.SystemMaxRequestMHz {
		// Constant-profile kernels and an unchanged version: the per-core
		// slice and MemoryStalls still hold exactly what this function
		// would rebuild.
		tel.Unchanged = true
		return tel
	}
	tel.SystemMaxRequestMHz = sysMax
	tel.MemoryStalls = false
	tel.Unchanged = false
	for i, c := range sk.cores {
		active := c.cstateNow == cstate.C0 && c.kernel != nil
		avxNow, memBound := false, false
		if active {
			// Read in place: Profile.MemoryBound's value receiver would
			// copy the whole profile.
			prof := c.profileNow(now)
			avxNow = prof.AVXFrac > 0
			memBound = prof.L3BytesPerInst > 0 || prof.MemBytesPerInst > 0
		}
		tel.Cores[i] = pcu.CoreTelemetry{
			Active:     active,
			RequestMHz: c.dom.Requested(),
			AVXNow:     avxNow,
			StallFrac:  c.lastStall,
			EPB:        pcu.EPBFromBits(c.epb),
		}
		if memBound {
			tel.MemoryStalls = true
		}
	}
	sk.telBuilt = sk.telVersion
	return tel
}

// integrate advances this socket's continuous state over [from, from+dt)
// and returns its total RAPL-domain power (package + DRAM) for the node
// AC computation.
//
// Integration is change-driven: if no operating-point mutation has been
// flagged since the last segment and the workload profiles still match,
// the memoized segment is replayed — the active cores' counters advance
// with the cached rates, and the power breakdown is re-derived from the
// memo in one multiply-add per leaking core (only the leakage
// temperature factor moves), skipping the memory-hierarchy solver and
// the operating-point rebuild entirely. The replayed segment is
// bit-for-bit identical to a full recomputation, so traces and
// experiment outputs do not depend on which path ran. Neither path
// touches a sleeping core: the TSC is node-wide (System.integrateTo)
// and residency is credited lazily (Core.creditResidency).
//
// sec is dt.Seconds(), which the caller has computed already.
func (sk *Socket) integrate(from sim.Time, dt sim.Time, sec float64) float64 {
	if !debugForceFullIntegration && sk.segValid && !sk.opDirty && sk.steadyAt(from) {
		sk.statReplay++
		return sk.integrateSteady(dt, sec)
	}
	sk.opDirty = false
	sk.statFull++
	return sk.integrateFull(from, dt, sec)
}

// debugForceFullIntegration disables the steady-segment replay (test
// seam: the bitwise-equivalence test runs the same scenario with and
// without it and requires identical output).
var debugForceFullIntegration = false

// debugNoConstSteady makes steadyAt visit every core even on a socket
// whose last full segment found only constant-profile kernels at
// slowdown 1 (test seam: the equivalence tests run the same scenario
// with and without it and require identical output).
var debugNoConstSteady = false

// steadyAt reports whether the memoized operating point still holds at
// segment start from. Profiles (phase-varying kernels) and the AVX ramp
// slowdown are the only integration inputs that drift without an
// explicit state-change event, so they are re-checked each segment —
// except on a constSteady socket, where neither can drift: a core's
// slowdown is 1 from its avxSlowUntil on, and it was 1 at the last full
// segment.
func (sk *Socket) steadyAt(from sim.Time) bool {
	if sk.constSteady && !debugNoConstSteady {
		return true
	}
	leader, point := -1, -1
	for j, c := range sk.coresBuf {
		if c.slowdown() != c.lastSD {
			return false
		}
		// Constant kernels cannot drift; only phase-varying profiles need
		// the (80-byte) compare against the memoized point, and cores
		// sharing a profile leader and a point would repeat it.
		if c.constProf || (c.profLeader == leader && sk.pointOf[j] == point) {
			continue
		}
		leader, point = c.profLeader, sk.pointOf[j]
		if *c.profileNow(from) != sk.pointsBuf[point].Prof {
			return false
		}
	}
	return true
}

// integrateSteady replays the memoized segment over dt (sec seconds).
func (sk *Socket) integrateSteady(dt sim.Time, sec float64) float64 {
	tscGHz := sk.sys.tscGHz
	for j, c := range sk.coresBuf {
		c.ctr.Advance(sec, sk.pointsBuf[sk.pointOf[j]].FreqGHz, tscGHz, c.lastRate, c.lastStall)
	}
	pkg := sk.Power.Replay(&sk.memo)
	pkgW := pkg.Total()
	dramW := sk.segDRAMW
	// Attribution must see the same temperature factor Replay used, so
	// it runs before UpdateTemp mutates it.
	if ep := sk.sys.eprof; ep != nil {
		ep.Apply(&sk.eplan, sec, int64(dt), sk.Power.TempFactor())
	}
	sk.Power.UpdateTemp(pkgW, dt)
	sk.RAPL.Integrate(pkgW, pkg.CoresDynamic+pkg.Leakage, dramW, sk.segEV, sec)
	sk.uncoreCtr.Advance(sec, sk.segUncGHz)
	sk.tickJoules += pkgW * sec
	return sk.RAPLDomainsPowerW(pkgW, dramW)
}

// opPoint is one operating point's grouping key and per-segment
// derivations. The clock, ring class and threads of a point are equal
// for all its cores, and so is the profile: the cores share a profile
// leader, or all run constant-profile kernels whose profiles are ==.
// Phase-varying cores of different leaders never share a point, even
// while their profiles happen to be equal: a kept point would be wrong
// one segment later. NaN never matches, so a constant NaN profile gets
// a point of its own; +0 and −0 match, which no consumer can tell
// apart (every profile field is either tested > 0 or added into a sum
// that starts at +0).
type opPoint struct {
	mhz    uarch.MHz
	class  int // cache.Model.RingClass
	leader int // profile leader of the core that opened the point
	// constProf: the point's cores run constant-profile kernels, so its
	// load's profile never needs refreshing.
	constProf bool
	n         int // cores at the point
	// sd is the AVX-ramp slowdown that rate, gips and ipcShare were last
	// derived for (NaN at the start of every full segment).
	sd, rate, gips, ipcShare float64
}

// debugNoSharedPoints makes every active core its own operating point
// (test seam: the operating-point equivalence test runs the same
// scenario with and without it and requires identical output).
var debugNoSharedPoints = false

// debugRegroupEverySegment makes every full segment rebuild the
// operating-point table, as if a grouping input had changed (test seam:
// the point-table equivalence tests run the same scenario with and
// without it and require identical output).
var debugRegroupEverySegment = false

// groupPoints brings the operating-point table up to date for a full
// segment starting at from. The table outlives the segment, and its
// inputs change only at events, so a segment takes one of three paths:
// it rebuilds the table after a grouping input changed (regroup), moves
// the cores whose p-state landed to the point of their new clock, or
// keeps the table. A moved or kept table then refreshes what drifts
// without an event: each phase-varying point's profile, and every
// point's slowdown memo.
func (sk *Socket) groupPoints(from sim.Time) {
	if sk.regroup || debugRegroupEverySegment {
		sk.rebuildPoints(from)
		return
	}
	if sk.landed {
		sk.movePoints(from)
	}
	for p := range sk.pointsMeta {
		pt := &sk.pointsMeta[p]
		pt.sd = math.NaN()
		if !pt.constProf {
			sk.pointsBuf[p].Prof = *sk.cores[pt.leader].profileNow(from)
		}
	}
}

// rebuildPoints groups the active cores into operating points from
// scratch, in core order.
func (sk *Socket) rebuildPoints(from sim.Time) {
	if n := len(sk.cores); cap(sk.coresBuf) < n {
		// The four grow together, and forkInto harvests them together.
		sk.coresBuf, sk.pointOf = make([]*Core, 0, n), make([]int, 0, n)
		sk.pointsBuf, sk.pointsMeta = make([]cache.CoreLoad, 0, n), make([]opPoint, 0, n)
	}
	sk.coresBuf, sk.pointOf = sk.coresBuf[:0], sk.pointOf[:0]
	sk.pointsBuf, sk.pointsMeta = sk.pointsBuf[:0], sk.pointsMeta[:0]
	for _, c := range sk.cores {
		if c.cstateNow != cstate.C0 || c.kernel == nil {
			continue
		}
		mhz, class := c.dom.Granted(), sk.Cache.RingClass(c.Index)
		q := sk.findPoint(c, mhz, class, from)
		if q < 0 {
			q = sk.addPoint(c, mhz, class, from)
		}
		sk.pointsMeta[q].n++
		sk.coresBuf = append(sk.coresBuf, c)
		sk.pointOf = append(sk.pointOf, q)
	}
	sk.regroup, sk.landed = false, false
	sk.statRegroup++
}

// movePoints moves every active core whose clock left its point's,
// which only a p-state landing does, to the point of its new clock: an
// existing point with an equal key, its own point retargeted if it was
// alone there, or a new point. A point left empty is dropped. Point
// order enters no sum (the solver sums demand over the cores in core
// order and rescales per point), so a drop may reorder the table.
func (sk *Socket) movePoints(from sim.Time) {
	for j, c := range sk.coresBuf {
		q, mhz := sk.pointOf[j], c.dom.Granted()
		if sk.pointsMeta[q].mhz == mhz {
			continue
		}
		sk.pointsMeta[q].n--
		class := sk.pointsMeta[q].class
		p := sk.findPoint(c, mhz, class, from)
		switch {
		case p >= 0:
		case sk.pointsMeta[q].n == 0:
			// Alone at its old point: retarget it in place.
			sk.pointsMeta[q].mhz = mhz
			sk.pointsBuf[q].FreqGHz = mhz.GHz()
			p = q
		default:
			p = sk.addPoint(c, mhz, class, from)
		}
		sk.pointsMeta[p].n++
		sk.pointOf[j] = p
		if sk.pointsMeta[q].n == 0 {
			sk.dropPoint(q)
		}
	}
	sk.landed = false
}

// findPoint returns the table's point that core c joins at clock mhz,
// or -1 if none matches (always -1 with point sharing off).
func (sk *Socket) findPoint(c *Core, mhz uarch.MHz, class int, from sim.Time) int {
	if debugNoSharedPoints {
		return -1
	}
	loads := sk.pointsBuf
	for p := range sk.pointsMeta {
		pt := &sk.pointsMeta[p]
		if pt.mhz != mhz || pt.class != class || loads[p].Threads != c.threads {
			continue
		}
		if pt.leader == c.profLeader ||
			(pt.constProf && c.constProf && loads[p].Prof == *c.profileNow(from)) {
			return p
		}
	}
	return -1
}

// addPoint appends an empty point for core c at clock mhz and returns
// its index.
func (sk *Socket) addPoint(c *Core, mhz uarch.MHz, class int, from sim.Time) int {
	sk.pointsMeta = append(sk.pointsMeta, opPoint{
		mhz: mhz, class: class, leader: c.profLeader, constProf: c.constProf, sd: math.NaN(),
	})
	sk.pointsBuf = append(sk.pointsBuf, cache.CoreLoad{
		CoreID:  c.Index,
		FreqGHz: mhz.GHz(),
		Threads: c.threads,
		Prof:    *c.profileNow(from),
	})
	return len(sk.pointsMeta) - 1
}

// dropPoint removes empty point q, moving the last point into its slot.
func (sk *Socket) dropPoint(q int) {
	last := len(sk.pointsMeta) - 1
	if q != last {
		sk.pointsMeta[q], sk.pointsBuf[q] = sk.pointsMeta[last], sk.pointsBuf[last]
		for j, p := range sk.pointOf {
			if p == last {
				sk.pointOf[j] = q
			}
		}
	}
	sk.pointsMeta, sk.pointsBuf = sk.pointsMeta[:last], sk.pointsBuf[:last]
}

// integrateFull brings the operating-point table up to date, solves the
// memory hierarchy, recomputes the power breakdown, and refreshes the
// segment memo for subsequent steady segments. Active cores that agree
// in clock, ring class, threads and profile share one operating point:
// the solver and every per-core derivation that depends only on the
// point run once per point.
func (sk *Socket) integrateFull(from sim.Time, dt sim.Time, sec float64) float64 {
	sk.groupPoints(from)
	cores, of, loads, pts := sk.coresBuf, sk.pointOf, sk.pointsBuf, sk.pointsMeta
	sk.statLoads += uint64(len(cores))
	sk.statPoints += uint64(len(pts))
	uncoreGHz := sk.UncoreMHz().GHz()
	results := sk.Cache.SolveShared(sk.resultsBuf, loads, of, uncoreGHz)
	sk.resultsBuf = results

	// Per-core accounting and power states, in core order: every core's
	// state is reset, and the active ones take their point's results.
	if cap(sk.statesBuf) < len(sk.cores) {
		sk.statesBuf = make([]power.CoreState, len(sk.cores))
	}
	states := sk.statesBuf[:len(sk.cores)]
	tscGHz := sk.sys.tscGHz
	var ev rapl.ModelInputs
	constSteady := true
	j := 0
	for i, c := range sk.cores {
		st := &states[i]
		*st = power.CoreState{CState: c.cstateNow, Volts: c.reg.Volts()}
		if j == len(cores) || cores[j] != c {
			c.lastStall = 0
			continue
		}
		q := of[j]
		j++
		ld, pt, r := &loads[q], &pts[q], &results[q]
		c.lastSD = c.slowdown()
		constSteady = constSteady && c.constProf && c.lastSD == 1
		if c.lastSD != pt.sd {
			pt.sd = c.lastSD
			pt.rate = r.Rate * pt.sd
			pt.gips = pt.rate / 1e9
			pt.ipcShare = 0
			if ld.Prof.IPC2 > 0 {
				pt.ipcShare = pt.rate / (ld.FreqGHz * 1e9) / ld.Prof.IPC2
			}
		}
		c.lastStall = r.StallFrac
		c.lastRate = pt.rate
		c.ctr.Advance(sec, ld.FreqGHz, tscGHz, pt.rate, r.StallFrac)
		st.FreqGHz = ld.FreqGHz
		st.Activity = ld.Prof.Activity
		st.AVXFrac = ld.Prof.AVXFrac
		st.IPCShare = pt.ipcShare
		ev.ActiveVVF += st.Volts * st.Volts * st.FreqGHz
		ev.GIPS += pt.gips
		ev.L3GBs += r.L3GBs
		ev.MemGBs += r.MemGBs
	}

	uncoreVolts := sk.uncoreReg.Volts()
	ev.UncoreVVF = uncoreVolts * uncoreVolts * uncoreGHz
	pkg := sk.Power.ComputeMemoized(&sk.memo, states, uncoreGHz, uncoreVolts)
	pkgW := pkg.Total()
	dramW := sk.Cache.IMC.PowerWatts(ev.MemGBs)

	// The operating point just changed: rebuild the attribution plan
	// from the fresh memo, then attribute this segment. Runs before
	// UpdateTemp for the same reason the memo's leakage is split into
	// base × temperature factor — attribution must reproduce exactly
	// the arithmetic ComputeMemoized folded into pkg.Leakage.
	if ep := sk.sys.eprof; ep != nil {
		sk.rebuildEplan(ep, dramW)
		ep.Apply(&sk.eplan, sec, int64(dt), sk.Power.TempFactor())
	}
	sk.Power.UpdateTemp(pkgW, dt)
	sk.RAPL.Integrate(pkgW, pkg.CoresDynamic+pkg.Leakage, dramW, ev, sec)
	sk.uncoreCtr.Advance(sec, uncoreGHz)
	sk.tickJoules += pkgW * sec

	// Refresh the segment memo for steady replays.
	sk.segEV = ev
	sk.segDRAMW = dramW
	sk.segUncGHz = uncoreGHz
	sk.segValid = true
	sk.constSteady = constSteady
	// A full segment rewrites every core's stall fraction — a telemetry
	// input — so the cached per-core telemetry no longer matches.
	sk.telChanged()
	return sk.RAPLDomainsPowerW(pkgW, dramW)
}

// rebuildEplan rebuilds the attribution plan from the just-refreshed
// segment memo: one entry per nonzero power-model term, resolving (or
// creating) the profiler bucket each term accumulates into. Dynamic
// entries are kept even at 0 W so an active core's virtual time is
// attributed; power-gated cores (leak scale 0) get no bucket at all —
// that is a modeling statement, not an omission: C6 cores draw nothing
// the package can attribute.
func (sk *Socket) rebuildEplan(ep *eprof.Collector, dramW float64) {
	// Flush integrals pending under the outgoing entries (and register
	// the plan with ep on first contact) before rewriting them.
	ep.SyncPlan(&sk.eplan)
	sk.eplan.Reset()
	for _, c := range sk.coresBuf {
		b := ep.BucketDynamic(sk.Index, c.CPU, c.kernel.Name(), c.avxMode,
			uint32(c.dom.Granted()))
		sk.eplan.AddConst(b, sk.memo.Dyn(c.Index))
	}
	for i, c := range sk.cores {
		if s := sk.memo.LeakScale(i); s != 0 {
			b := ep.BucketLeakage(sk.Index, c.CPU, uint8(c.cstateNow), c.cstateNow.String())
			sk.eplan.AddLeak(b, sk.memo.LeakBase(i), s)
		}
	}
	if u := sk.memo.Uncore(); u != 0 {
		sk.eplan.AddConst(ep.BucketSocket(sk.Index, eprof.CompUncore, uint32(sk.UncoreMHz())), u)
	}
	sk.eplan.AddConst(ep.BucketSocket(sk.Index, eprof.CompStatic, 0), sk.memo.Static())
	if dramW != 0 {
		sk.eplan.AddConst(ep.BucketSocket(sk.Index, eprof.CompDRAM, 0), dramW)
	}
}

// RAPLDomainsPowerW sums the power of the RAPL-visible domains.
func (sk *Socket) RAPLDomainsPowerW(pkgW, dramW float64) float64 {
	return pkgW + dramW
}

// LastPkgPowerW returns the package power the PCU saw at its last tick.
func (sk *Socket) LastPkgPowerW() float64 { return sk.lastPkgPowW }
