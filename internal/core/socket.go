package core

import (
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
	// per component. Components with internal slices (PCU) are
	// copy-on-write behind a fork-generation stamp.
	Power power.PackageModel
	RAPL  rapl.Package
	PCU   pcu.PCU

	uncoreReg fivr.Regulator
	uncoreMHz uarch.MHz
	uncoreCtr perfctr.Uncore
	mbvr      fivr.MBVR

	cores []*Core
	// residSlab backs every core's p-state residency bins in one
	// contiguous allocation (cores × residencyBins, subsliced with full
	// capacity caps per core). It is always private to this socket:
	// newSocket allocates it and forkInto eagerly copies the parent's
	// slab into the child's own (recycled) one, which is what lets the
	// residency add() hot path skip any copy-on-write barrier.
	residSlab []sim.Time
	pkgCState cstate.PkgState
	// prevDeepState/leftDeepAt track a just-exited package sleep state
	// so wakes arriving within the exit window still classify as
	// "remote idle" (see System.refreshPackageStates).
	prevDeepState cstate.PkgState
	leftDeepAt    sim.Time

	pcuPhase sim.Time
	rng      sim.RNG
	// tickEv identifies the pending grid-tick event so Fork can re-arm
	// it declaratively on the child engine (the callback itself is the
	// System's closure-free HandleEvent dispatch).
	tickEv sim.EventID
	// Energy accumulated since the last PCU tick: the RAPL input to the
	// TDP controller.
	tickJoules  float64
	lastTick    sim.Time
	lastPkgPowW float64
	// Cached solver outputs for the current segment.
	dramGBs float64

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

	// Change-driven integration accounting: replay vs full-recompute
	// segment counts. Plain fields (a socket integrates on one
	// goroutine); System.flushObs pushes deltas to the obs registry at
	// run boundaries, so the per-segment path stays atomic-free. Forked
	// sockets start at zero and count their own segments.
	statReplay, statFull               uint64
	statReplayFlushed, statFullFlushed uint64

	// eplan is the energy profiler's attribution plan for the memoized
	// segment: one prebuilt (bucket, rate) entry per power-model term,
	// rebuilt alongside the memo on full segments and executed on every
	// segment (see rebuildEplan). Only populated while System.eprof is
	// armed; its backing array is harvested/reseated by forkInto like
	// the other scratch buffers.
	eplan eprof.Plan

	// Scratch buffers for the per-segment integration (hot path).
	loadsBuf   []cache.CoreLoad
	coresBuf   []*Core
	statesBuf  []power.CoreState
	resultsBuf []cache.CoreResult
	telCores   []pcu.CoreTelemetry
	// loadsStale forces integrateFull to rebuild loadsBuf from scratch:
	// a kernel assignment can change a core's profile without changing
	// the active set, which is what the in-place refresh keys on.
	loadsStale bool

	// Telemetry version cache: telVersion is bumped by every mutation
	// that can move a per-core telemetry field (kernel assignment,
	// c-state change, p-state request, EPB write, a full integration
	// segment refreshing the stall fractions). While the version holds
	// and every active core runs a constant-profile kernel
	// (telCacheable), the per-core telemetry slice is reused as-is and
	// the PCU is told so (Telemetry.Unchanged), skipping both the
	// rebuild and the PCU's own per-core comparison. telBuilt == 0 means
	// never built (versions start at 1); forkInto resets it because the
	// harvested child buffer holds stale contents.
	telVersion   uint64
	telBuilt     uint64
	telCacheable bool
	telMemSt     bool
	telSysMax    uarch.MHz
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
	sk.telVersion = 1
	sk.telCacheable = true
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

	tel := sk.telemetry(now)
	dec := sk.PCU.Tick(now, tel)

	// Apply core frequency grants.
	for i, c := range sk.cores {
		if dec.AVXMode[i] != c.avxMode {
			if tr := sk.sys.trace; tr != nil {
				if dec.AVXMode[i] {
					tr.Emitf(now, trace.AVXEnter, sk.Index, c.CPU, "")
					tr.Begin(now, trace.SpanAVX, sk.Index, c.CPU, "avx")
				} else {
					tr.Emitf(now, trace.AVXExit, sk.Index, c.CPU, "")
					tr.End(now, trace.SpanAVX, sk.Index, c.CPU)
				}
			}
			sk.markDirty()
		}
		c.avxMode = dec.AVXMode[i]
		target := dec.CoreTargetMHz[i]
		if !sk.sys.cfg.PCPSEnabled {
			// Single frequency domain: everyone gets the fastest grant.
			for _, f := range dec.CoreTargetMHz {
				if f > target {
					target = f
				}
			}
		}
		c.applyGrant(now, target)
	}

	// Apply the uncore grant.
	if dec.UncoreMHz != sk.uncoreMHz && !cstate.UncoreHalted(sk.pkgCState) {
		if tr := sk.sys.trace; tr != nil {
			tr.Emitf(now, trace.UncoreChange, sk.Index, -1,
				"%v -> %v", sk.uncoreMHz, dec.UncoreMHz)
			tr.Beginf(now, trace.SpanUncore, sk.Index, -1, "%v", dec.UncoreMHz)
		}
		sk.uncoreMHz = dec.UncoreMHz
		sk.uncoreReg.SetFrequency(dec.UncoreMHz)
		sk.markDirty()
	}
}

// telemetry gathers the PCU inputs.
func (sk *Socket) telemetry(now sim.Time) pcu.Telemetry {
	if sk.telCores == nil {
		sk.telCores = make([]pcu.CoreTelemetry, len(sk.cores))
	}
	tel := pcu.Telemetry{
		Cores:               sk.telCores,
		PkgPowerW:           sk.lastPkgPowW,
		PkgCState:           sk.pkgCState,
		TempC:               sk.Power.TempC(),
		SystemMaxRequestMHz: sk.sys.maxActiveRequest(),
	}
	if sk.telCacheable && sk.telBuilt == sk.telVersion &&
		tel.SystemMaxRequestMHz == sk.telSysMax {
		// Constant-profile kernels and an unchanged version: the per-core
		// slice still holds exactly what this function would rebuild.
		tel.MemoryStalls = sk.telMemSt
		tel.Unchanged = true
		return tel
	}
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
			EPB:        pcu.EPBFromBits(c.epbBits),
		}
		if memBound {
			tel.MemoryStalls = true
		}
	}
	sk.telBuilt = sk.telVersion
	sk.telMemSt = tel.MemoryStalls
	sk.telSysMax = tel.SystemMaxRequestMHz
	return tel
}

// integrate advances this socket's continuous state over [from, from+dt)
// and returns its total RAPL-domain power (package + DRAM) for the node
// AC computation.
//
// Integration is change-driven: if no operating-point mutation has been
// flagged since the last segment and the workload profiles still match,
// the memoized segment is replayed — counters and residency advance
// with the cached rates, and the power breakdown is re-derived from the
// memo in O(cores) multiply-adds (only the leakage temperature factor
// moves), skipping the memory-hierarchy solver and the operating-point
// rebuild entirely. The replayed segment is bit-for-bit identical to a
// full recomputation, so traces and experiment outputs do not depend on
// which path ran.
func (sk *Socket) integrate(from sim.Time, dt sim.Time) float64 {
	if !debugForceFullIntegration && sk.segValid && !sk.opDirty && sk.steadyAt(from) {
		sk.statReplay++
		return sk.integrateSteady(dt)
	}
	sk.opDirty = false
	sk.statFull++
	return sk.integrateFull(from, dt)
}

// debugForceFullIntegration disables the steady-segment replay (test
// seam: the bitwise-equivalence test runs the same scenario with and
// without it and requires identical output).
var debugForceFullIntegration = false

// steadyAt reports whether the memoized operating point still holds at
// segment start from. Profiles (phase-varying kernels) and the AVX ramp
// slowdown are the only integration inputs that drift without an
// explicit state-change event, so they are re-checked each segment.
func (sk *Socket) steadyAt(from sim.Time) bool {
	for j, c := range sk.coresBuf {
		if c.slowdown() != c.lastSD {
			return false
		}
		// Constant kernels cannot drift; only phase-varying profiles need
		// the (80-byte) compare against the memoized load.
		if !c.constProf && *c.profileNow(from) != sk.loadsBuf[j].Prof {
			return false
		}
	}
	return true
}

// integrateSteady replays the memoized segment over dt.
func (sk *Socket) integrateSteady(dt sim.Time) float64 {
	tscGHz := sk.Spec.BaseMHz.GHz()
	for _, c := range sk.cores {
		c.resid.add(sk.Spec, c.dom.Granted(), c.cstateNow, dt)
	}
	for j, c := range sk.coresBuf {
		c.ctr.Advance(dt, sk.loadsBuf[j].FreqGHz, tscGHz, c.lastRate, c.lastStall, true)
	}
	for _, c := range sk.cores {
		if c.cstateNow != cstate.C0 || c.kernel == nil {
			c.ctr.Advance(dt, 0, tscGHz, 0, 0, false)
		}
	}
	pkg := sk.Power.Replay(&sk.memo)
	pkgW := pkg.Total()
	dramW := sk.segDRAMW
	// Attribution must see the same temperature factor Replay used, so
	// it runs before UpdateTemp mutates it.
	if ep := sk.sys.eprof; ep != nil {
		ep.Apply(&sk.eplan, dt.Seconds(), int64(dt), sk.Power.TempFactor())
	}
	sk.Power.UpdateTemp(pkgW, dt)
	sk.RAPL.Integrate(pkgW, pkg.CoresDynamic+pkg.Leakage, dramW, sk.segEV, dt)
	sk.uncoreCtr.Advance(dt, sk.segUncGHz)
	sk.tickJoules += pkgW * dt.Seconds()
	return sk.RAPLDomainsPowerW(pkgW, dramW)
}

// integrateFull re-derives the operating point, solves the memory
// hierarchy, recomputes the power breakdown, and refreshes the segment
// memo for subsequent steady segments.
func (sk *Socket) integrateFull(from sim.Time, dt sim.Time) float64 {
	// Solve the memory hierarchy for the active cores. When the active
	// set is pointer-identical to the previous full segment (the common
	// case: the PCU regranting frequencies under a power cap), the load
	// entries are refreshed in place — frequency and threads always,
	// profile only for phase-varying kernels — instead of re-copying
	// every 80-byte Profile through a rebuild.
	old := sk.coresBuf
	loadCores := sk.coresBuf[:0]
	same := !sk.loadsStale
	for _, c := range sk.cores {
		if c.cstateNow == cstate.C0 && c.kernel != nil {
			if j := len(loadCores); same && (j >= len(old) || old[j] != c) {
				same = false
			}
			loadCores = append(loadCores, c)
		}
	}
	var loads []cache.CoreLoad
	if same && len(loadCores) == len(old) {
		loads = sk.loadsBuf[:len(old)]
		for j, c := range loadCores {
			loads[j].FreqGHz = c.dom.Granted().GHz()
			loads[j].Threads = c.threads
			if !c.constProf {
				loads[j].Prof = *c.profileNow(from)
			}
		}
	} else {
		loads = sk.loadsBuf[:0]
		for _, c := range loadCores {
			loads = append(loads, cache.CoreLoad{
				CoreID:  c.Index,
				FreqGHz: c.dom.Granted().GHz(),
				Threads: c.threads,
				Prof:    *c.profileNow(from),
			})
		}
	}
	sk.loadsBuf, sk.coresBuf = loads, loadCores
	sk.loadsStale = false
	uncoreGHz := sk.UncoreMHz().GHz()
	results := sk.Cache.SolveInto(sk.resultsBuf, loads, uncoreGHz)
	sk.resultsBuf = results

	// Per-core accounting and power states.
	if cap(sk.statesBuf) < len(sk.cores) {
		sk.statesBuf = make([]power.CoreState, len(sk.cores))
	}
	states := sk.statesBuf[:len(sk.cores)]
	for i := range states {
		states[i] = power.CoreState{}
	}
	tscGHz := sk.Spec.BaseMHz.GHz()
	var ev rapl.ModelInputs
	sk.dramGBs = 0
	for i, c := range sk.cores {
		states[i] = power.CoreState{CState: c.cstateNow, Volts: c.reg.Volts()}
		c.lastStall = 0
		c.resid.add(sk.Spec, c.dom.Granted(), c.cstateNow, dt)
	}
	for j, c := range loadCores {
		r := results[j]
		prof := &loads[j].Prof
		c.lastSD = c.slowdown()
		rate := r.Rate * c.lastSD
		ipcShare := 0.0
		if prof.IPC2 > 0 {
			ipcShare = rate / (loads[j].FreqGHz * 1e9) / prof.IPC2
		}
		c.lastStall = r.StallFrac
		c.lastRate = rate
		c.ctr.Advance(dt, loads[j].FreqGHz, tscGHz, rate, r.StallFrac, true)
		st := &states[c.Index]
		st.FreqGHz = loads[j].FreqGHz
		st.Activity = prof.Activity
		st.AVXFrac = prof.AVXFrac
		st.IPCShare = ipcShare
		ev.ActiveVVF += st.Volts * st.Volts * st.FreqGHz
		ev.GIPS += rate / 1e9
		ev.L3GBs += r.L3GBs
		ev.MemGBs += r.MemGBs
		sk.dramGBs += r.MemGBs
	}
	// Idle cores still advance TSC.
	for _, c := range sk.cores {
		if c.cstateNow != cstate.C0 || c.kernel == nil {
			c.ctr.Advance(dt, 0, tscGHz, 0, 0, false)
			c.lastRate = 0
		}
	}

	uncoreVolts := sk.uncoreReg.Volts()
	ev.UncoreVVF = uncoreVolts * uncoreVolts * uncoreGHz
	pkg := sk.Power.ComputeMemoized(&sk.memo, states, uncoreGHz, uncoreVolts)
	pkgW := pkg.Total()
	dramW := sk.Cache.IMC.PowerWatts(sk.dramGBs)

	// The operating point just changed: rebuild the attribution plan
	// from the fresh memo, then attribute this segment. Runs before
	// UpdateTemp for the same reason the memo's leakage is split into
	// base × temperature factor — attribution must reproduce exactly
	// the arithmetic ComputeMemoized folded into pkg.Leakage.
	if ep := sk.sys.eprof; ep != nil {
		sk.rebuildEplan(ep, dramW)
		ep.Apply(&sk.eplan, dt.Seconds(), int64(dt), sk.Power.TempFactor())
	}
	sk.Power.UpdateTemp(pkgW, dt)
	sk.RAPL.Integrate(pkgW, pkg.CoresDynamic+pkg.Leakage, dramW, ev, dt)
	sk.uncoreCtr.Advance(dt, uncoreGHz)
	sk.tickJoules += pkgW * dt.Seconds()

	// Refresh the segment memo for steady replays.
	sk.segEV = ev
	sk.segDRAMW = dramW
	sk.segUncGHz = uncoreGHz
	sk.segValid = true
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
