// Package pcu models the Haswell-EP Power Control Unit — the on-die
// microcontroller behind every transparent frequency mechanism the paper
// characterizes:
//
//   - the ~500 us frequency-transition opportunity grid (Section VI-A,
//     Figure 4): software requests only take effect at the next grid
//     point, shared by all cores of a package and independent between
//     packages;
//   - per-core p-states (PCPS) and the turbo ladders, including the AVX
//     ladder and the 1 ms return delay after the last 256-bit operation
//     (Section II-F);
//   - energy-efficient turbo (EET): sporadic (1 ms) stall polling that
//     withholds turbo bins from stall-heavy cores unless the energy
//     performance bias demands performance (Section II-E);
//   - uncore frequency scaling (UFS): the stall/EPB/core-frequency
//     driven uncore clock of Table III, including the cross-socket
//     interlock that keeps the passive package one step below the
//     active one;
//   - RAPL-based TDP enforcement with core/uncore budget trading — the
//     mechanism behind Table IV, where lowering the core frequency
//     setting frees thermal budget that the PCU hands to the uncore.
package pcu

import (
	"fmt"
	"unsafe"

	"hswsim/internal/cstate"
	"hswsim/internal/sim"
	"hswsim/internal/uarch"
)

// EPB is the energy/performance bias hint (IA32_ENERGY_PERF_BIAS).
type EPB int

// The three defined settings (Section II-C).
const (
	EPBPerformance EPB = 0
	EPBBalanced    EPB = 6
	EPBPowerSave   EPB = 15
)

func (e EPB) String() string {
	switch e.Classify() {
	case EPBPerformance:
		return "performance"
	case EPBBalanced:
		return "balanced"
	default:
		return "energy saving"
	}
}

// Classify maps any 4-bit register value onto the behaviour the paper
// measured: 0 = performance, 1-7 = balanced, 8-15 = energy saving.
func (e EPB) Classify() EPB {
	switch {
	case e <= 0:
		return EPBPerformance
	case e <= 7:
		return EPBBalanced
	default:
		return EPBPowerSave
	}
}

// EPBFromBits decodes an IA32_ENERGY_PERF_BIAS register value.
func EPBFromBits(v uint64) EPB { return EPB(v & 0xF).Classify() }

// Config selects the PCU feature set (the BIOS switches of Table II plus
// ablation toggles).
type Config struct {
	Spec   *uarch.Spec
	Socket int
	// GridPhase offsets this package's opportunity grid; packages run
	// independent grids (Section VI-A).
	GridPhase sim.Time

	TurboEnabled bool
	EETEnabled   bool
	UFSEnabled   bool
	// PCPSEnabled: per-core p-states; when false all cores share the
	// fastest requested frequency (pre-Haswell behaviour).
	PCPSEnabled bool
	// BudgetTrading: hand TDP headroom freed by lower core settings to
	// the uncore (ablation switch for the Table IV crossover).
	BudgetTrading bool
	// TDPOverrideW replaces the spec TDP when positive.
	TDPOverrideW float64
	// ThrottleTempC is the PROCHOT threshold; 0 uses the 92 C default.
	// Thermal throttling is distinct from RAPL limiting: it ignores the
	// AVX-base guarantee and can push clocks to the minimum ("typically
	// only limited by power or thermal constraints", Section II-E).
	ThrottleTempC float64
}

// DefaultConfig mirrors the paper's test system (Table II): turbo, EET,
// UFS and PCPS all enabled.
func DefaultConfig(spec *uarch.Spec, socket int, phase sim.Time) Config {
	return Config{
		Spec: spec, Socket: socket, GridPhase: phase,
		TurboEnabled: true, EETEnabled: true, UFSEnabled: true,
		PCPSEnabled: true, BudgetTrading: true,
	}
}

// CoreTelemetry is one core's state as the PCU sees it at a grid tick.
type CoreTelemetry struct {
	Active     bool // in C0 executing work
	RequestMHz uarch.MHz
	// AVXNow: the core executed 256-bit operations during the last
	// interval (the PCU applies the 1 ms relax timer itself).
	AVXNow    bool
	StallFrac float64
	EPB       EPB
}

// Telemetry is the per-tick PCU input.
type Telemetry struct {
	Cores     []CoreTelemetry
	PkgPowerW float64
	PkgCState cstate.PkgState
	// SystemMaxRequestMHz is the fastest active core's setting anywhere
	// in the system (uncore interlock input).
	SystemMaxRequestMHz uarch.MHz
	// MemoryStalls: any core on this socket is stalling on L3/DRAM.
	MemoryStalls bool
	// TempC is the package temperature (PROCHOT input).
	TempC float64
	// Unchanged asserts that Cores' contents, MemoryStalls and
	// SystemMaxRequestMHz are identical to the previous Tick call on
	// this PCU (the caller tracks its own mutations). It lets the
	// steady-tick path skip the per-core comparison; the continuously
	// drifting scalars (PkgPowerW, TempC) are not covered and are always
	// re-checked.
	Unchanged bool
}

// Decision is the PCU output for one grid tick.
type Decision struct {
	// CoreTargetMHz is the granted frequency target per core slot.
	CoreTargetMHz []uarch.MHz
	// UncoreMHz is the uncore clock (0 = halted by a package c-state).
	UncoreMHz uarch.MHz
	// AVXMode flags cores currently held in AVX operating mode.
	AVXMode []bool
	// Replayed reports a fixed-point tick: the steady-tick memo replayed
	// the previous Tick's Decision, so every field above equals what the
	// previous call returned.
	Replayed bool
}

// PCU is one package's power control unit.
type PCU struct {
	cfg Config
	tdp float64

	throttleBins int
	thermalBins  int
	uncoreMHz    uarch.MHz
	// Software uncore bounds (MSR_UNCORE_RATIO_LIMIT); zero = hardware.
	uncoreUserMin uarch.MHz
	uncoreUserMax uarch.MHz

	lastAVX []sim.Time

	eetStall    []float64
	lastEETPoll sim.Time

	// Scratch buffers for Tick (the Decision is valid until the next
	// Tick call).
	decCore []uarch.MHz
	decAVX  []bool

	// Steady-tick memo: when this tick's telemetry matches the last
	// tick's and the controller state is provably at a fixed point, Tick
	// replays the previous Decision after only the timestamp bookkeeping
	// (AVX hold times, EET poll clock) — skipping the per-core target
	// ladder, the budget controller and the uncore map walk. lastCores
	// is the PCU's own copy (the caller reuses its telemetry buffer);
	// lastUncTarget memoizes uncoreUnconstrained for the fixed-point
	// check. Invalidated by SetTDPWatts and SetUncoreLimits.
	lastValid     bool
	lastSteady    bool // previous tick took the steady path
	lastCores     []CoreTelemetry
	lastPkgPowW   float64
	lastPkgC      cstate.PkgState
	lastMemSt     bool
	lastSysMax    uarch.MHz
	lastUncTarget uarch.MHz
}

// New builds a PCU.
func New(cfg Config) *PCU {
	tdp := cfg.Spec.Power.TDP
	if cfg.TDPOverrideW > 0 {
		tdp = cfg.TDPOverrideW
	}
	n := cfg.Spec.Cores
	p := &PCU{
		cfg:       cfg,
		tdp:       tdp,
		uncoreMHz: cfg.Spec.UncoreMinMHz,
		lastAVX:   make([]sim.Time, n),
		eetStall:  make([]float64, n),
	}
	for i := range p.lastAVX {
		p.lastAVX[i] = -sim.Second
	}
	return p
}

// ForkInto overwrites dst with a copy of the PCU, reusing dst's slice
// storage: same controller state (throttle depth, uncore clock, AVX/EET
// bookkeeping), steady-tick memo and Decision scratch, so the copy's
// future Tick decisions match the original's exactly for identical
// telemetry. cfg is copied as-is — its Spec pointer is immutable and
// safe to share.
func (p *PCU) ForkInto(dst *PCU) {
	lastAVX, eetStall, decCore, decAVX, lastCores :=
		dst.lastAVX, dst.eetStall, dst.decCore, dst.decAVX, dst.lastCores
	*dst = *p
	dst.lastAVX = append(lastAVX[:0], p.lastAVX...)
	dst.eetStall = append(eetStall[:0], p.eetStall...)
	dst.decCore = append(decCore[:0], p.decCore...)
	dst.decAVX = append(decAVX[:0], p.decAVX...)
	dst.lastCores = append(lastCores[:0], p.lastCores...)
}

// ForkBytes returns the bytes ForkInto copies out of the PCU's slices.
func (p *PCU) ForkBytes() int64 {
	return int64(len(p.lastAVX))*int64(unsafe.Sizeof(sim.Time(0))) +
		int64(len(p.eetStall))*8 +
		int64(len(p.decCore))*int64(unsafe.Sizeof(uarch.MHz(0))) +
		int64(len(p.decAVX)) +
		int64(len(p.lastCores))*int64(unsafe.Sizeof(CoreTelemetry{}))
}

// TDPWatts returns the enforced package power limit.
func (p *PCU) TDPWatts() float64 { return p.tdp }

// SetTDPWatts reprograms the enforced power limit at runtime (the
// MSR_PKG_POWER_LIMIT path; a hardware-enforced power bound in the
// sense of Rountree et al., which the paper cites for its imbalance
// discussion). Values are clamped to a sane floor.
func (p *PCU) SetTDPWatts(w float64) {
	if w < 20 {
		w = 20
	}
	p.tdp = w
	p.lastValid = false
}

// SetUncoreLimits programs software bounds on the uncore clock — the
// MSR_UNCORE_RATIO_LIMIT path (Section II-D; its encoding was
// undocumented at the paper's publication and documented later). Zero
// values restore the hardware bounds.
func (p *PCU) SetUncoreLimits(min, max uarch.MHz) {
	spec := p.cfg.Spec
	if min <= 0 || min < spec.UncoreMinMHz {
		min = spec.UncoreMinMHz
	}
	if max <= 0 || max > spec.UncoreMaxMHz {
		max = spec.UncoreMaxMHz
	}
	if max < min {
		max = min
	}
	p.uncoreUserMin, p.uncoreUserMax = min, max
	p.lastValid = false
}

// clampUncoreUser applies the software uncore bounds.
func (p *PCU) clampUncoreUser(f uarch.MHz) uarch.MHz {
	if p.uncoreUserMax > 0 && f > p.uncoreUserMax {
		f = p.uncoreUserMax
	}
	if p.uncoreUserMin > 0 && f < p.uncoreUserMin {
		f = p.uncoreUserMin
	}
	return f
}

// GridPeriod returns the transition opportunity period (0 = immediate).
func (p *PCU) GridPeriod() sim.Time {
	return sim.Time(p.cfg.Spec.PStateGridPeriodUS * float64(sim.Microsecond))
}

// NextOpportunity returns the first grid point at or after now. With no
// grid (pre-Haswell parts) it returns now.
func (p *PCU) NextOpportunity(now sim.Time) sim.Time {
	period := p.GridPeriod()
	if period <= 0 {
		return now
	}
	rel := now - p.cfg.GridPhase
	if rel < 0 {
		return p.cfg.GridPhase
	}
	k := rel / period
	if rel%period == 0 {
		return now
	}
	return p.cfg.GridPhase + (k+1)*period
}

// avxRelax returns the AVX mode hold time after the last 256-bit op.
func (p *PCU) avxRelax() sim.Time {
	return sim.Time(p.cfg.Spec.AVXRelaxUS * float64(sim.Microsecond))
}

// eetPeriod returns the EET stall polling period.
func (p *PCU) eetPeriod() sim.Time {
	return sim.Time(p.cfg.Spec.EETPollPeriodUS * float64(sim.Microsecond))
}

// Tick runs one grid evaluation and returns the new operating targets.
// The returned slices are reused by the next Tick call.
func (p *PCU) Tick(now sim.Time, tel Telemetry) Decision {
	if p.steadyTick(now, tel) {
		return Decision{
			CoreTargetMHz: p.decCore,
			AVXMode:       p.decAVX,
			UncoreMHz:     p.uncoreMHz,
			Replayed:      true,
		}
	}
	n := p.cfg.Spec.Cores
	if len(p.decCore) == 0 {
		p.decCore = make([]uarch.MHz, n)
		p.decAVX = make([]bool, n)
	}
	clear(p.decCore)
	clear(p.decAVX)
	dec := Decision{
		CoreTargetMHz: p.decCore,
		AVXMode:       p.decAVX,
	}

	// AVX mode bookkeeping: enter immediately, leave 1 ms after the
	// last 256-bit operation (Section II-F).
	for i := 0; i < n && i < len(tel.Cores); i++ {
		if tel.Cores[i].AVXNow {
			p.lastAVX[i] = now
		}
		dec.AVXMode[i] = now-p.lastAVX[i] <= p.avxRelax()
	}

	// EET: refresh the stall sample only at its own (1 ms) cadence —
	// the sporadic polling the paper warns about.
	if per := p.eetPeriod(); p.cfg.EETEnabled && per > 0 && now-p.lastEETPoll >= per {
		p.lastEETPoll = now
		for i := 0; i < n && i < len(tel.Cores); i++ {
			p.eetStall[i] = tel.Cores[i].StallFrac
		}
	}

	activeCores := 0
	for i := range tel.Cores {
		if tel.Cores[i].Active {
			activeCores++
		}
	}

	// Per-core frequency targets before power limiting.
	maxTarget := uarch.MHz(0)
	for i := 0; i < n; i++ {
		var ct CoreTelemetry
		if i < len(tel.Cores) {
			ct = tel.Cores[i]
		}
		dec.CoreTargetMHz[i] = p.coreTarget(ct, dec.AVXMode[i], activeCores, i)
		if ct.Active && dec.CoreTargetMHz[i] > maxTarget {
			maxTarget = dec.CoreTargetMHz[i]
		}
	}

	// Power limiting (TDP) over cores, then uncore selection. The
	// uncore pressure floor couples to what the cores actually get
	// (their throttled grant), reproducing Table IV's sustained
	// core ≈ uncore operating point at the turbo setting.
	avxAny := false
	for i := range dec.AVXMode {
		if dec.AVXMode[i] {
			avxAny = true
			break
		}
	}
	p.updateThermal(tel.TempC)
	maxGranted := p.applyThrottle(maxTarget, true)
	p.updateBudget(tel, maxGranted, activeCores, avxAny)
	for i := 0; i < n; i++ {
		dec.CoreTargetMHz[i] = p.applyThrottle(dec.CoreTargetMHz[i], dec.AVXMode[i])
	}

	dec.UncoreMHz = p.selectUncore(tel, dec)
	if dec.UncoreMHz != 0 {
		dec.UncoreMHz = p.clampUncoreUser(dec.UncoreMHz)
	}
	p.uncoreMHz = dec.UncoreMHz
	p.storeSteady(tel)
	return dec
}

// storeSteady records this tick's telemetry for the steady-tick memo.
func (p *PCU) storeSteady(tel Telemetry) {
	p.lastCores = append(p.lastCores[:0], tel.Cores...)
	p.lastPkgPowW = tel.PkgPowerW
	p.lastPkgC = tel.PkgCState
	p.lastMemSt = tel.MemoryStalls
	p.lastSysMax = tel.SystemMaxRequestMHz
	p.lastUncTarget = p.uncoreUnconstrained(tel)
	p.lastValid = true
	// A slow tick has not verified the fast-path per-core conditions
	// (AVXNow == decision, EET stall parity); the next steadyTick must
	// run the full comparison before the Unchanged skip becomes legal.
	p.lastSteady = false
}

// steadyTick detects a fixed-point grid tick and replays the previous
// Decision. The conditions make every state mutation the full evaluation
// would perform either provably absent or reproduced here, so a steady
// tick is bit-for-bit indistinguishable from a recomputed one:
//
//   - identical per-core telemetry, package power, package c-state,
//     stall signal and interlock input as the memoized tick — so the
//     target ladder and uncore selection would resolve identically;
//   - no throttle depth (TDP or thermal) and power at or under the
//     limit, with the temperature below the PROCHOT trip — so the
//     thermal and budget controllers would not move;
//   - the uncore already at or above the memoized UFS target — so the
//     budget controller's headroom climb would not move it either;
//   - every core's AVX activity equal to its granted AVX mode — an
//     active core refreshes its hold timer (done below, as the full
//     path would), and an inactive, expired one stays expired;
//   - EET's stall samples already equal the incoming stall telemetry —
//     so a due poll (clock advanced below) rewrites identical values.
func (p *PCU) steadyTick(now sim.Time, tel Telemetry) bool {
	// Package power is compared by threshold side, not value: the
	// controllers read it only against the TDP (budget engage), 0.8×TDP
	// (uncore snap-to-target) and the headroom deadband, so ulp-level
	// drift in the measured watts cannot change the decision once the
	// same sides hold.
	if !p.lastValid || len(p.decCore) == 0 ||
		p.throttleBins != 0 || p.thermalBins != 0 ||
		len(tel.Cores) != len(p.lastCores) || len(tel.Cores) != len(p.decAVX) ||
		tel.PkgPowerW > p.tdp ||
		(tel.PkgPowerW < p.tdp*0.8) != (p.lastPkgPowW < p.tdp*0.8) ||
		tel.PkgCState != p.lastPkgC ||
		tel.MemoryStalls != p.lastMemSt ||
		tel.SystemMaxRequestMHz != p.lastSysMax ||
		tel.TempC > p.throttleTemp() {
		return false
	}
	if p.cfg.UFSEnabled && p.uncoreMHz < p.lastUncTarget &&
		p.tdp-tel.PkgPowerW > p.tdp*0.005 {
		return false
	}
	// With the caller asserting identical per-core inputs and the
	// previous tick having verified them, the comparison can be skipped:
	// nothing on the right-hand side of these conditions has been
	// written since it last held.
	if !(tel.Unchanged && p.lastSteady) {
		for i := range tel.Cores {
			if tel.Cores[i] != p.lastCores[i] ||
				tel.Cores[i].AVXNow != p.decAVX[i] ||
				(p.cfg.EETEnabled && p.eetStall[i] != tel.Cores[i].StallFrac) {
				return false
			}
		}
	}
	// Steady: perform only the timestamp bookkeeping.
	for i := range tel.Cores {
		if tel.Cores[i].AVXNow {
			p.lastAVX[i] = now
		}
	}
	if per := p.eetPeriod(); p.cfg.EETEnabled && per > 0 && now-p.lastEETPoll >= per {
		p.lastEETPoll = now
	}
	p.lastSteady = true
	return true
}

// coreTarget picks a core's pre-throttle frequency target.
func (p *PCU) coreTarget(ct CoreTelemetry, avxMode bool, activeCores, idx int) uarch.MHz {
	spec := p.cfg.Spec
	if !ct.Active {
		// Idle cores park at the minimum p-state.
		return spec.MinMHz
	}
	req := ct.RequestMHz
	if req == 0 {
		req = spec.BaseMHz
	}
	turboRequested := req > spec.BaseMHz
	// EPB performance engages turbo even at the base setting
	// (Section II-C).
	if ct.EPB.Classify() == EPBPerformance && req == spec.BaseMHz {
		turboRequested = true
	}
	var target uarch.MHz
	if turboRequested && p.cfg.TurboEnabled {
		target = spec.TurboLimit(activeCores, avxMode)
		// EET withholds turbo bins from stall-bound cores.
		if p.cfg.EETEnabled && ct.EPB.Classify() != EPBPerformance {
			target = p.eetCap(target, idx, ct.EPB)
		}
	} else {
		target = req
		if target > spec.BaseMHz {
			target = spec.BaseMHz
		}
	}
	// The AVX ladder also caps explicit settings above it.
	if avxMode {
		if lim := spec.TurboLimit(activeCores, true); target > lim {
			target = lim
		}
	}
	return target
}

// eetCap reduces a turbo target when the (stale, 1 ms old) stall sample
// says the extra clock is wasted.
func (p *PCU) eetCap(target uarch.MHz, idx int, epb EPB) uarch.MHz {
	stall := p.eetStall[idx]
	base := p.cfg.Spec.BaseMHz
	var cap uarch.MHz
	switch {
	case epb.Classify() == EPBPowerSave && stall > 0.10:
		cap = base
	case stall > 0.35:
		cap = base
	case stall > 0.18:
		cap = base + (target-base)/2/p.cfg.Spec.PStateStep*p.cfg.Spec.PStateStep
	default:
		return target
	}
	if target > cap {
		return cap
	}
	return target
}

// mcCoreBinW estimates the package-power cost of one 100 MHz core bin
// across the active cores at the current operating point — the PCU's
// internal DVFS power table.
func (p *PCU) mcCoreBinW(f uarch.MHz, activeCores int, avx bool) float64 {
	pm := &p.cfg.Spec.Power
	g := f.GHz()
	v := pm.VMin + pm.VSlopePerGHz*(g-1.2)
	if v > pm.VMax {
		v = pm.VMax
	}
	dvvf := v*v + 2*v*g*pm.VSlopePerGHz // d(V^2 f)/df
	act := 1.0
	if avx {
		act = pm.AVXActivityBoost
	}
	w := pm.CeffCore * act * dvvf * float64(activeCores) * 0.1
	if w < 0.5 {
		w = 0.5
	}
	return w
}

// mcUncBinW estimates the power cost of one 100 MHz uncore bin.
func (p *PCU) mcUncBinW() float64 {
	pm := &p.cfg.Spec.Power
	g := p.uncoreMHz.GHz()
	v := pm.VMin + pm.VSlopePerGHz*(g-1.2)
	if v > pm.VMax {
		v = pm.VMax
	}
	w := pm.CeffUncore * (v*v + 2*v*g*pm.VSlopePerGHz) * 0.1
	if w < 0.2 {
		w = 0.2
	}
	return w
}

// updateBudget is the TDP controller: a proportional allocator over the
// PCU's internal power table. Over budget, it first trims the uncore
// toward its pressure floor, then throttles the cores; headroom
// restores cores first (optimistically, so the grant duty-cycles around
// the fractional operating point), then hands the remaining watts to
// the uncore — the Table IV core/uncore budget trade.
func (p *PCU) updateBudget(tel Telemetry, maxGranted uarch.MHz, activeCores int, avx bool) {
	spec := p.cfg.Spec
	if tel.PkgPowerW <= 0 {
		return
	}
	floor := p.uncorePressureFloor(maxGranted)
	target := p.uncoreUnconstrained(tel)
	if floor > target {
		floor = target
	}
	step := spec.PStateStep
	mcCore := p.mcCoreBinW(maxGranted, activeCores, avx)
	mcUnc := p.mcUncBinW()

	if tel.PkgPowerW > p.tdp {
		need := tel.PkgPowerW - p.tdp
		if p.cfg.BudgetTrading && p.cfg.UFSEnabled && p.uncoreMHz > floor {
			bins := int(need/mcUnc) + 1
			if max := int((p.uncoreMHz - floor) / step); bins > max {
				bins = max
			}
			p.uncoreMHz -= uarch.MHz(bins) * step
			need -= float64(bins) * mcUnc
		}
		if need > 0 {
			bins := int(need/mcCore) + 1
			p.throttleBins += bins
			if max := int((spec.MaxTurboMHz() - spec.MinMHz) / step); p.throttleBins > max {
				p.throttleBins = max
			}
		}
	} else if head := p.tdp - tel.PkgPowerW; head > p.tdp*0.005 {
		// Optimistic core restore: give a bin back once more than ~60%
		// of its cost is available; the overshoot is trimmed next tick,
		// yielding the fractional sustained frequencies of Table IV.
		if p.throttleBins > 0 && head >= 0.6*mcCore {
			bins := int(head / mcCore)
			if bins == 0 {
				bins = 1
			}
			if bins > p.throttleBins {
				bins = p.throttleBins
			}
			p.throttleBins -= bins
			head -= float64(bins) * mcCore
		}
		// Rebalance: if cores are still throttled but the headroom does
		// not cover a core bin while the uncore holds above-floor
		// budget, hand uncore bins back until a core bin fits.
		if p.throttleBins > 0 && p.cfg.BudgetTrading && p.cfg.UFSEnabled &&
			p.uncoreMHz > floor && head < 0.6*mcCore {
			p.uncoreMHz -= step
		}
		// The uncore may always follow the cores up to its coupled
		// floor; boost above the floor is only granted once the cores
		// run unthrottled, so throttled cores keep first claim on
		// returning headroom.
		climbCap := target
		if p.throttleBins > 0 && floor < climbCap {
			climbCap = floor
		}
		if p.cfg.UFSEnabled && head > 0 && p.uncoreMHz < climbCap {
			bins := int(head / mcUnc)
			// Optimistic single-bin climb: RAPL limiting is an average,
			// so brief excursions while probing the ceiling are fine.
			if bins == 0 && head >= 0.3*mcUnc {
				bins = 1
			}
			if max := int((climbCap - p.uncoreMHz) / step); bins > max {
				bins = max
			}
			p.uncoreMHz += uarch.MHz(bins) * step
		}
	}
	if p.uncoreMHz < spec.UncoreMinMHz {
		p.uncoreMHz = spec.UncoreMinMHz
	}
	if p.uncoreMHz > spec.UncoreMaxMHz {
		p.uncoreMHz = spec.UncoreMaxMHz
	}
}

// applyThrottle subtracts the TDP throttle from a target, never below
// the guaranteed floor (AVX base on Haswell-EP — everything above is
// opportunistic, Section II-F) nor below the explicit setting when that
// is lower. The AVX-base guarantee only holds at the part's rated TDP:
// an operator-programmed lower power limit may push the clock all the
// way down.
func (p *PCU) applyThrottle(target uarch.MHz, avxMode bool) uarch.MHz {
	bins := p.throttleBins + p.thermalBins
	if bins == 0 {
		return target
	}
	spec := p.cfg.Spec
	floor := spec.GuaranteedMHz(avxMode)
	if p.tdp < spec.Power.TDP || p.thermalBins > 0 {
		// Operator power bounds and PROCHOT override the AVX-base
		// guarantee.
		floor = spec.MinMHz
	}
	if target < floor {
		floor = target
	}
	out := target - uarch.MHz(bins)*spec.PStateStep
	if out < floor {
		out = floor
	}
	return out
}

// throttleTemp returns the PROCHOT threshold.
func (p *PCU) throttleTemp() float64 {
	if p.cfg.ThrottleTempC > 0 {
		return p.cfg.ThrottleTempC
	}
	return 92
}

// updateThermal runs the PROCHOT controller: over the trip temperature,
// shed a frequency bin per tick; comfortably below it, give one back.
func (p *PCU) updateThermal(tempC float64) {
	limit := p.throttleTemp()
	switch {
	case tempC > limit:
		p.thermalBins++
		if max := int((p.cfg.Spec.MaxTurboMHz() - p.cfg.Spec.MinMHz) / p.cfg.Spec.PStateStep); p.thermalBins > max {
			p.thermalBins = max
		}
	case tempC < limit-3 && p.thermalBins > 0:
		p.thermalBins--
	}
}

// ThermalBins exposes the PROCHOT throttle depth (diagnostics).
func (p *PCU) ThermalBins() int { return p.thermalBins }

// uncorePressureFloor is how far the TDP controller may trim the uncore:
// somewhat above the Table III no-stall operating point for the current
// core grant (the coupling observed in Table IV, where the sustained
// uncore clock tracks the sustained core clock).
func (p *PCU) uncorePressureFloor(maxCoreTarget uarch.MHz) uarch.MHz {
	spec := p.cfg.Spec
	key := maxCoreTarget
	if key > spec.BaseMHz {
		key = spec.BaseMHz
	}
	if key < spec.MinMHz {
		key = spec.MinMHz
	}
	base, ok := spec.UncoreMapActive[key]
	if !ok {
		base = spec.UncoreMinMHz
	}
	floor := base + 3*spec.PStateStep
	if floor > spec.UncoreMaxMHz {
		floor = spec.UncoreMaxMHz
	}
	return floor
}

// uncoreUnconstrained is the UFS target ignoring the power budget.
func (p *PCU) uncoreUnconstrained(tel Telemetry) uarch.MHz {
	spec := p.cfg.Spec
	if tel.MemoryStalls {
		// Memory-stall scenarios drive the uncore to its maximum
		// (Section V-A: "the upper bound ... is 3.0 GHz, also for
		// lower core frequencies").
		return spec.UncoreMaxMHz
	}
	// No-stall operating point from the reverse-engineered map.
	active := false
	maxReq := uarch.MHz(0)
	perfEPB := false
	for _, ct := range tel.Cores {
		if ct.Active {
			active = true
			if ct.RequestMHz > maxReq {
				maxReq = ct.RequestMHz
			}
			if ct.EPB.Classify() == EPBPerformance {
				perfEPB = true
			}
		}
	}
	var m map[uarch.MHz]uarch.MHz
	var key uarch.MHz
	if active {
		m, key = spec.UncoreMapActive, maxReq
	} else {
		// Passive socket: interlocked one step below the active
		// socket's operating point (Table III, second row). The
		// EPB-performance pin (the table's asterisks) applies here
		// too, judged from the parked cores' bias.
		m, key = spec.UncoreMapPassive, tel.SystemMaxRequestMHz
		for _, ct := range tel.Cores {
			if ct.EPB.Classify() == EPBPerformance {
				perfEPB = true
				break
			}
		}
	}
	if key < spec.MinMHz {
		key = spec.MinMHz
	}
	if key > spec.BaseMHz {
		key = spec.TurboSettingMHz()
	}
	// EPB performance pins the uncore at maximum for near-base settings
	// (the asterisk rows of Table III).
	if perfEPB && key >= spec.BaseMHz {
		return spec.UncoreMaxMHz
	}
	if f, ok := m[key]; ok {
		return f
	}
	return spec.UncoreMinMHz
}

// selectUncore resolves the final uncore clock for this tick.
func (p *PCU) selectUncore(tel Telemetry, dec Decision) uarch.MHz {
	spec := p.cfg.Spec
	if cstate.UncoreHalted(tel.PkgCState) {
		return 0
	}
	switch spec.UncorePolicy {
	case uarch.UncoreFixed:
		return spec.UncoreMaxMHz
	case uarch.UncoreCoupled:
		// Uncore follows the fastest granted core clock.
		max := spec.UncoreMinMHz
		for i, f := range dec.CoreTargetMHz {
			if i < len(tel.Cores) && tel.Cores[i].Active && f > max {
				max = f
			}
		}
		return max
	}
	if !p.cfg.UFSEnabled {
		return spec.UncoreMaxMHz
	}
	target := p.uncoreUnconstrained(tel)
	// The budget controller owns p.uncoreMHz under power pressure;
	// with ample headroom, snap straight to the unconstrained target
	// (the Table III no-pressure operating points).
	if p.throttleBins == 0 && tel.PkgPowerW < p.tdp*0.8 {
		return target
	}
	if p.uncoreMHz > target {
		return target
	}
	return p.uncoreMHz
}

// ThrottleBins exposes the current TDP throttle depth (diagnostics).
func (p *PCU) ThrottleBins() int { return p.throttleBins }

func (p *PCU) String() string {
	return fmt.Sprintf("PCU[socket %d]: grid %v, TDP %.0f W, throttle %d bins, uncore %v",
		p.cfg.Socket, p.GridPeriod(), p.tdp, p.throttleBins, p.uncoreMHz)
}
