// Package core assembles the complete simulated platform: two (or more)
// processor packages with their cores, FIVRs, PCUs, caches, RAPL units
// and performance counters, DRAM behind each package's IMCs, and the
// node-level AC power domain observed by the LMG450 meter — the paper's
// bullx R421 E4 test system (Section III) in virtual time.
//
// The system advances through a deterministic event engine. Between
// events the platform state is constant, so power and performance are
// integrated analytically segment by segment: the cache model solves
// for instruction rates and bandwidths, the power model turns operating
// points into watts, RAPL and the performance counters accumulate, and
// the PCU closes the loop at its ~500 us grid.
package core

import (
	"fmt"

	"hswsim/internal/cstate"
	"hswsim/internal/eprof"
	"hswsim/internal/msr"
	"hswsim/internal/obs"
	"hswsim/internal/pcu"
	"hswsim/internal/power"
	"hswsim/internal/ring"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Config describes a platform build.
type Config struct {
	Spec    *uarch.Spec
	Sockets int
	Node    power.NodeConfig
	Seed    uint64
	// AmbientC is the inlet air temperature.
	AmbientC float64

	// Feature switches (BIOS knobs / ablations); defaults per Table II.
	TurboEnabled  bool
	EETEnabled    bool
	UFSEnabled    bool
	PCPSEnabled   bool
	BudgetTrading bool
	TDPOverrideW  float64
	// ThrottleTempC overrides the PROCHOT trip point (0 = 92 C).
	ThrottleTempC float64
	// HyperThreading: threads per core available to workloads.
	HyperThreading bool
	// IdleState is the c-state idle cores sink to (default C6).
	IdleState cstate.State
	// GridJitter adds per-tick spread to the PCU opportunity period
	// (the "about 500 us" of Section VI-A). Zero disables jitter.
	GridJitter sim.Time
}

// DefaultConfig returns the paper's test-system configuration
// (Table II): 2x E5-2680 v3, turbo/EET/UFS/PCPS enabled, EPB balanced,
// fans at maximum.
func DefaultConfig() Config {
	return Config{
		Spec:           uarch.E52680v3(),
		Sockets:        2,
		Node:           power.HaswellNode(),
		Seed:           0x5eed,
		AmbientC:       30,
		TurboEnabled:   true,
		EETEnabled:     true,
		UFSEnabled:     true,
		PCPSEnabled:    true,
		BudgetTrading:  true,
		HyperThreading: true,
		IdleState:      cstate.C6,
		GridJitter:     25 * sim.Microsecond,
	}
}

// SandyBridgeConfig returns the Sandy Bridge-EP comparison node.
func SandyBridgeConfig() Config {
	c := DefaultConfig()
	c.Spec = uarch.E52670SNB()
	c.Node = power.SandyBridgeNode()
	c.EETEnabled = false
	c.PCPSEnabled = false
	c.GridJitter = 0
	return c
}

// WestmereConfig returns the Westmere-EP comparison node.
func WestmereConfig() Config {
	c := SandyBridgeConfig()
	c.Spec = uarch.X5670WSM()
	return c
}

// System is the running platform.
type System struct {
	Engine *sim.Engine
	cfg    Config

	sockets []*Socket
	// meter and rng are embedded by value: a struct copy of the System
	// carries them wholesale (Fork copies the meter's sample history
	// into the child's own log).
	meter power.LMG450
	rng   sim.RNG

	lastIntegrate sim.Time
	// tsc is the node's invariant time-stamp counter, in (fractional)
	// cycles. Every core reads the same TSC, so the node advances one
	// count per integration step instead of one per core per segment.
	// It runs at tscGHz, the base clock (Spec.BaseMHz.GHz(), derived once).
	tsc    float64
	tscGHz float64
	// AC energy accumulated since the last meter sample, for averaging.
	acJoules    float64
	lastACPower float64

	epb pcu.EPB

	// pool is the tree-wide free list of released fork children (shared
	// by every fork of one root); releaseTo is where Release returns
	// this system's storage — nil for a root system, the tree's pool
	// for a fork child. Held by pointer so a System struct copy carries
	// no mutex.
	pool      *forkPool
	releaseTo *forkPool

	// meterEv identifies the meter's periodic sample event so Fork can
	// re-arm it declaratively on the child engine.
	meterEv sim.EventID

	// statesBuf is refreshPackageStates' scratch (hot on wake-heavy
	// workloads; one buffer instead of one slice per refresh).
	statesBuf []cstate.State

	// maxReqMHz caches the fastest active core setting anywhere in the
	// system — the uncore interlock input every socket's telemetry needs
	// each grid tick. Invalidated by the three mutations that can move
	// it: kernel assignment, an idle-governor sleep, a p-state request.
	maxReqMHz   uarch.MHz
	maxReqValid bool

	// trace is nil unless EnableTrace was called (nil is a valid no-op
	// recorder; every hot call site still guards, because formatting
	// arguments for a discarded record would allocate).
	trace *trace.Collector
	// traceFlushed mirrors the collector's cumulative counters at the
	// last flushObs, so only deltas reach the obs registry (same
	// pattern as the sockets' integration-segment counters).
	traceSpansFlushed     uint64
	traceSpanDropsFlushed uint64

	// eprof is nil unless EnableEnergyProfile was called; the sockets'
	// integration paths guard on it (the disabled cost is one nil
	// check). Forks carry a copy so child accumulation never touches
	// the parent (see populateFork).
	eprof *eprof.Collector
	// eprofSegsFlushed mirrors the collector's segment count at the
	// last flushObs (delta pattern, same as the trace counters).
	eprofSegsFlushed uint64

	// raplJoules accumulates total RAPL-domain energy (package + DRAM)
	// chronologically across integrateTo — the reference total the
	// profiler's summed attribution is checked against.
	raplJoules float64
}

// EnableTrace starts recording platform activity into a span-based
// virtual-time collector (capacity bounds its completed-span ring) and
// returns it. The collector is seeded with the platform's current
// episodic state — every core's c-state, each package's c-state, uncore
// frequency and power limit — so the first exported residency span of
// each scope starts at enable time rather than at the first subsequent
// change.
func (s *System) EnableTrace(capacity int) *trace.Collector {
	s.trace = trace.NewCollector(capacity)
	now := s.Engine.Now()
	for _, sk := range s.sockets {
		for _, c := range sk.cores {
			s.trace.Begin(now, trace.SpanCState, sk.Index, c.CPU, c.cstateNow.String())
			if c.avxMode {
				s.trace.Begin(now, trace.SpanAVX, sk.Index, c.CPU, "avx")
			}
		}
		s.trace.Beginf(now, trace.SpanUncore, sk.Index, -1, "%v", sk.uncoreMHz)
		s.trace.Begin(now, trace.SpanPkgCState, sk.Index, -1, sk.pkgCState.String())
		s.trace.Begin(now, trace.SpanPowerLimit, sk.Index, -1,
			powerLimitLabel(sk.powerLimit, sk.Spec.Power.TDP))
	}
	return s.trace
}

// Trace returns the trace collector (nil when tracing is disabled).
func (s *System) Trace() *trace.Collector { return s.trace }

// EnableEnergyProfile arms the virtual-time energy profiler: from this
// instant every integration segment attributes its Joules and
// nanoseconds into the returned collector (root is the profile's root
// frame, typically the experiment label). Integrates up to now first —
// energy before enablement is deliberately unattributed — and dirties
// every socket so the next segment rebuilds its attribution plan.
func (s *System) EnableEnergyProfile(root string) *eprof.Collector {
	s.integrateTo(s.Engine.Now())
	s.eprof = eprof.NewCollector(root)
	s.eprofSegsFlushed = 0
	for _, sk := range s.sockets {
		sk.markDirty()
	}
	return s.eprof
}

// EnergyProfile returns the profiler collector (nil when disabled).
func (s *System) EnergyProfile() *eprof.Collector { return s.eprof }

// SetEnergyPhase closes the current attribution phase at the present
// virtual instant and opens a new one: subsequent segments accumulate
// under the new phase frame. No-op when profiling is disabled.
func (s *System) SetEnergyPhase(name string) {
	if s.eprof == nil {
		return
	}
	s.integrateTo(s.Engine.Now())
	s.eprof.SetPhase(name)
	// Existing plans point at old-phase buckets; force rebuilds.
	for _, sk := range s.sockets {
		sk.markDirty()
	}
}

// TotalRAPLEnergyJ returns the cumulative RAPL-domain energy (package +
// DRAM, all sockets) integrated since construction — the ground truth
// the profiler's summed attribution must match.
func (s *System) TotalRAPLEnergyJ() float64 {
	s.integrateTo(s.Engine.Now())
	return s.raplJoules
}

// NewSystem builds and starts the platform clockwork (PCU grids and the
// power meter are armed; no workload runs yet).
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sockets <= 0 {
		return nil, fmt.Errorf("core: need at least one socket")
	}
	if cfg.IdleState == cstate.C0 {
		cfg.IdleState = cstate.C6
	}
	s := &System{
		Engine: sim.NewEngine(),
		cfg:    cfg,
		epb:    pcu.EPBBalanced,
		tscGHz: cfg.Spec.BaseMHz.GHz(),
	}
	s.rng = *sim.NewRNG(cfg.Seed)
	s.meter = *power.NewLMG450(s.rng.Fork(0xAC))

	topo, err := topologyFor(cfg.Spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Sockets; i++ {
		s.sockets = append(s.sockets, newSocket(s, i, topo))
	}
	s.pool = &forkPool{}

	// Arm the PCU grids (jittered, per-socket phase) and the meter.
	for _, sk := range s.sockets {
		sk.scheduleNextTick(sk.pcuPhase)
	}
	s.meterEv = s.Engine.EveryIDHandler(power.SamplePeriod, power.SamplePeriod,
		s, s.CPUs()+len(s.sockets))
	// Prime the integrator and resolve initial package states (all
	// cores idle: both packages sink into deep package sleep).
	s.refreshPackageStates()
	s.integrateTo(0)
	return s, nil
}

// topologyFor picks a die layout for the spec; non-Haswell parts use the
// single-ring 8-core layout with their own core count active.
func topologyFor(spec *uarch.Spec) (*ring.Topology, error) {
	if t, err := ring.ForDie(spec.DiesCores); err == nil {
		return t, nil
	}
	return ring.ForDie(8)
}

// Config returns the platform configuration.
func (s *System) Config() Config { return s.cfg }

// Spec returns the processor spec.
func (s *System) Spec() *uarch.Spec { return s.cfg.Spec }

// Sockets returns the socket count.
func (s *System) Sockets() int { return len(s.sockets) }

// CPUs returns the number of addressable cores (one logical CPU per
// physical core; thread placement is per-kernel).
func (s *System) CPUs() int { return len(s.sockets) * s.cfg.Spec.Cores }

// Socket returns socket i.
func (s *System) Socket(i int) *Socket { return s.sockets[i] }

// SocketOf maps a CPU number to its socket index.
func (s *System) SocketOf(cpu int) int { return cpu / s.cfg.Spec.Cores }

// coreOf maps a CPU to its Core, or nil.
func (s *System) coreOf(cpu int) *Core {
	if cpu < 0 || cpu >= s.CPUs() {
		return nil
	}
	return s.sockets[cpu/s.cfg.Spec.Cores].cores[cpu%s.cfg.Spec.Cores]
}

// Meter returns the LMG450 reference power meter.
func (s *System) Meter() *power.LMG450 { return &s.meter }

// HandleEvent dispatches the platform's own timers (sim.Handler). The
// integer argument encodes the target, so every platform event — core
// p-state completions, per-socket PCU grid ticks, the meter sample — is
// scheduled closure-free: arg in [0, CPUs) is a core completion, the
// next Sockets() values are grid ticks, anything above is the meter.
// Re-arming the whole schedule on a forked engine therefore allocates
// nothing beyond the queue entries themselves.
func (s *System) HandleEvent(now sim.Time, arg int) {
	ncpu := s.CPUs()
	switch {
	case arg < ncpu:
		cores := s.cfg.Spec.Cores
		s.sockets[arg/cores].cores[arg%cores].onComplete(now)
	case arg < ncpu+len(s.sockets):
		s.sockets[arg-ncpu].gridTick(now)
	default:
		s.meterTick(now)
	}
}

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.Engine.Now() }

// Run advances the platform by d of virtual time.
func (s *System) Run(d sim.Time) {
	s.Engine.Run(d)
	s.integrateTo(s.Engine.Now())
	s.flushObs()
}

// RunUntil advances the platform to absolute time t.
func (s *System) RunUntil(t sim.Time) {
	s.Engine.RunUntil(t)
	s.integrateTo(t)
	s.flushObs()
}

// flushObs pushes the sockets' integration-segment counter deltas to
// the obs registry — a handful of atomic adds per Run call, nothing per
// segment. Deliberately not called from Fork: the parent must stay
// read-only for concurrent forks; its deltas flush on its next Run.
func (s *System) flushObs() {
	for _, sk := range s.sockets {
		if d := sk.statReplay - sk.statReplayFlushed; d > 0 {
			obs.PowerSegReplays.Add(int64(d))
			sk.statReplayFlushed = sk.statReplay
		}
		if d := sk.statFull - sk.statFullFlushed; d > 0 {
			obs.PowerSegFulls.Add(int64(d))
			sk.statFullFlushed = sk.statFull
		}
		if d := sk.statRegroup - sk.statRegroupFlushed; d > 0 {
			obs.PowerSegRegrouped.Add(int64(d))
			sk.statRegroupFlushed = sk.statRegroup
		}
		if d := sk.statLoads - sk.statLoadsFlushed; d > 0 {
			obs.PowerFullLoads.Add(int64(d))
			sk.statLoadsFlushed = sk.statLoads
		}
		if d := sk.statPoints - sk.statPointsFlushed; d > 0 {
			obs.PowerFullPoints.Add(int64(d))
			sk.statPointsFlushed = sk.statPoints
		}
	}
	if tr := s.trace; tr != nil {
		if v := tr.SpansRecorded(); v > s.traceSpansFlushed {
			obs.TraceSpans.Add(int64(v - s.traceSpansFlushed))
			s.traceSpansFlushed = v
		}
		if v := tr.SpanDrops(); v > s.traceSpanDropsFlushed {
			obs.TraceSpanDrops.Add(int64(v - s.traceSpanDropsFlushed))
			s.traceSpanDropsFlushed = v
		}
	}
	if ep := s.eprof; ep != nil {
		if v := ep.Segments(); v > s.eprofSegsFlushed {
			obs.EprofSegments.Add(int64(v - s.eprofSegsFlushed))
			s.eprofSegsFlushed = v
		}
	}
}

// meterTick is the LMG450 sample event: one persistent periodic timer
// that doubles as the platform's integration heartbeat. Integration and
// metering are coalesced — the same integrateTo pass that closes the
// 50 ms sample window also advances counters, energy and thermal state,
// so steady phases cost exactly one (usually memo-replayed) segment per
// sample.
func (s *System) meterTick(now sim.Time) {
	s.integrateTo(now)
	dt := power.SamplePeriod.Seconds()
	s.meter.Record(now, s.acJoules/dt)
	s.acJoules = 0
}

// integrateTo advances all continuous state (counters, energy, thermal)
// from the last integration point to now. It must be called before any
// state change and before any observation.
func (s *System) integrateTo(now sim.Time) {
	dt := now - s.lastIntegrate
	if dt < 0 {
		panic("core: integration time went backwards")
	}
	if dt == 0 {
		s.lastIntegrate = now
		return
	}
	sec := dt.Seconds()
	totalRAPL := 0.0
	for _, sk := range s.sockets {
		totalRAPL += sk.integrate(s.lastIntegrate, dt, sec)
	}
	s.tsc += s.tscGHz * 1e9 * sec
	s.raplJoules += totalRAPL * sec
	ac := s.cfg.Node.ACWatts(totalRAPL)
	s.acJoules += ac * sec
	s.lastACPower = ac
	s.lastIntegrate = now
}

// ACPowerW returns the instantaneous true AC power (not the meter view).
func (s *System) ACPowerW() float64 {
	s.integrateTo(s.Engine.Now())
	return s.lastACPower
}

// SetEPB programs the energy performance bias on every core (the
// BIOS/tool-level setting of Table II).
func (s *System) SetEPB(e pcu.EPB) {
	s.integrateTo(s.Engine.Now())
	s.epb = e
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.WriteMSR(cpu, msr.IA32_ENERGY_PERF_BIAS, uint64(e)); err != nil {
			panic(err) // every cpu in range; cannot fault
		}
	}
}

// EPB returns the current bias classification.
func (s *System) EPB() pcu.EPB { return s.epb.Classify() }

// AssignKernel starts a workload kernel on a CPU with the given thread
// count (clamped to the SMT width / HT setting). A nil kernel idles the
// core. The core wakes immediately if it was sleeping (self-wake, e.g.
// an interrupt) — cross-core wake semantics live in WakeCore.
func (s *System) AssignKernel(cpu int, k workload.Kernel, threads int) error {
	c := s.coreOf(cpu)
	if c == nil {
		return fmt.Errorf("core: no cpu %d", cpu)
	}
	s.integrateTo(s.Engine.Now())
	maxThreads := 1
	if s.cfg.HyperThreading {
		maxThreads = s.cfg.Spec.ThreadsPerCore
	}
	if threads < 1 {
		threads = 1
	}
	if threads > maxThreads {
		threads = maxThreads
	}
	c.assign(s.Engine.Now(), k, threads)
	s.refreshPackageStates()
	return nil
}

// SetPState requests a p-state for one CPU (the cpufreq path). Values
// above base select turbo.
func (s *System) SetPState(cpu int, f uarch.MHz) error {
	c := s.coreOf(cpu)
	if c == nil {
		return fmt.Errorf("core: no cpu %d", cpu)
	}
	s.integrateTo(s.Engine.Now())
	c.requestPState(s.Engine.Now(), f)
	return nil
}

// SetPStateAll requests a p-state on every CPU.
func (s *System) SetPStateAll(f uarch.MHz) {
	for cpu := 0; cpu < s.CPUs(); cpu++ {
		if err := s.SetPState(cpu, f); err != nil {
			panic(err)
		}
	}
}

// RequestTurbo requests the turbo setting on every CPU.
func (s *System) RequestTurbo() { s.SetPStateAll(s.cfg.Spec.TurboSettingMHz()) }

// maxActiveRequest returns the fastest active core setting anywhere in
// the system, recomputing the cache on demand.
func (s *System) maxActiveRequest() uarch.MHz {
	if !s.maxReqValid {
		m := uarch.MHz(0)
		for _, sk := range s.sockets {
			for _, c := range sk.cores {
				if c.cstateNow == cstate.C0 && c.kernel != nil && c.dom.Requested() > m {
					m = c.dom.Requested()
				}
			}
		}
		s.maxReqMHz, s.maxReqValid = m, true
	}
	return s.maxReqMHz
}

// refreshPackageStates recomputes package c-states after core activity
// changes (Haswell-EP: any active core anywhere blocks package sleep).
func (s *System) refreshPackageStates() {
	anyActive := false
	for _, sk := range s.sockets {
		for _, c := range sk.cores {
			if c.cstateNow == cstate.C0 {
				anyActive = true
			}
		}
	}
	now := s.Engine.Now()
	for _, sk := range s.sockets {
		if cap(s.statesBuf) < len(sk.cores) {
			s.statesBuf = make([]cstate.State, len(sk.cores))
		}
		states := s.statesBuf[:len(sk.cores)]
		for i, c := range sk.cores {
			states[i] = c.cstateNow
		}
		next := cstate.DeepestPkgState(states, anyActive)
		if next != sk.pkgCState {
			if tr := s.trace; tr != nil {
				tr.Begin(now, trace.SpanPkgCState, sk.Index, -1, next.String())
			}
			// Package state gates the uncore clock: the memoized
			// operating point no longer holds.
			sk.markDirty()
		}
		if cstate.UncoreHalted(sk.pkgCState) && !cstate.UncoreHalted(next) {
			// The package is being pulled out of deep sleep (e.g. a
			// core elsewhere became active and snoops it). Remember
			// the state it is exiting from: a wake arriving within the
			// exit window still pays the package-exit penalty.
			sk.prevDeepState = sk.pkgCState
			sk.leftDeepAt = now
		}
		sk.pkgCState = next
	}
}
