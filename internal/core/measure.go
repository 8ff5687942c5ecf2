package core

import (
	"fmt"

	"hswsim/internal/msr"
	"hswsim/internal/obs"
	"hswsim/internal/perfctr"
	"hswsim/internal/rapl"
	"hswsim/internal/sim"
)

// MeasureCore runs the platform for dur and returns the counter interval
// observed on cpu — the LIKWID-style sampling primitive.
func (s *System) MeasureCore(cpu int, dur sim.Time) perfctr.Interval {
	c := s.coreOf(cpu)
	if c == nil {
		return perfctr.Interval{}
	}
	a := c.Snapshot()
	s.Run(dur)
	b := c.Snapshot()
	return perfctr.Delta(a, b)
}

// MeasureUncoreGHz runs the platform for dur and returns the average
// uncore frequency of a socket (the UNCORE_CLOCK:UBOXFIX measurement).
func (s *System) MeasureUncoreGHz(socket int, dur sim.Time) float64 {
	if socket < 0 || socket >= len(s.sockets) {
		return 0
	}
	a := s.sockets[socket].UncoreSnapshot()
	s.Run(dur)
	b := s.sockets[socket].UncoreSnapshot()
	return perfctr.UncoreFreqGHz(a, b)
}

// RAPLReading is a package+DRAM counter snapshot.
type RAPLReading struct {
	At   sim.Time
	Pkg  uint64
	DRAM uint64
}

// ReadRAPL snapshots a socket's RAPL counters through the MSR interface
// (as a tool would).
func (s *System) ReadRAPL(socket int) (RAPLReading, error) {
	if socket < 0 || socket >= len(s.sockets) {
		return RAPLReading{}, fmt.Errorf("core: no socket %d", socket)
	}
	cpu := socket * s.cfg.Spec.Cores
	pkg, err := s.ReadMSR(cpu, msr.MSR_PKG_ENERGY_STATUS)
	if err != nil {
		return RAPLReading{}, err
	}
	r := RAPLReading{At: s.Engine.Now(), Pkg: pkg}
	if s.cfg.Spec.RAPLDRAMSupported {
		dram, err := s.ReadMSR(cpu, msr.MSR_DRAM_ENERGY_STATUS)
		if err != nil {
			return RAPLReading{}, err
		}
		r.DRAM = dram
	}
	return r, nil
}

// RAPLPowerW derives package and DRAM power between two readings using
// the correct energy units (package unit from MSR_RAPL_POWER_UNIT, the
// fixed 15.3 uJ DRAM unit — "DRAM mode 1"). An invalid measurement
// window (b not strictly after a) or an MSR read failure is a real
// error, never a silent 0 W reading: a zero row in a rendered table
// would be indistinguishable from a measured idle package. Each
// rejection is also counted in the obs registry so run reports surface
// how often it happened.
func (s *System) RAPLPowerW(a, b RAPLReading) (pkgW, dramW float64, err error) {
	dt := b.At - a.At
	if dt <= 0 {
		obs.RAPLWindowErrors.Inc()
		return 0, 0, fmt.Errorf("core: invalid RAPL window [%v, %v]: second reading must be later", a.At, b.At)
	}
	unitReg, err := s.ReadMSR(0, msr.MSR_RAPL_POWER_UNIT)
	if err != nil {
		obs.RAPLWindowErrors.Inc()
		return 0, 0, fmt.Errorf("core: RAPL power units: %w", err)
	}
	pkgW = rapl.PowerFromCounter(a.Pkg, b.Pkg, msr.EnergyUnitJoules(unitReg), dt)
	dramW = rapl.PowerFromCounter(a.DRAM, b.DRAM, msr.DRAMEnergyUnitJoulesHaswellEP, dt)
	return pkgW, dramW, nil
}

// RAPLTotalPowerW measures the summed package+DRAM power of all sockets
// over dur (advances time).
func (s *System) RAPLTotalPowerW(dur sim.Time) (float64, error) {
	before := make([]RAPLReading, len(s.sockets))
	for i := range s.sockets {
		r, err := s.ReadRAPL(i)
		if err != nil {
			return 0, err
		}
		before[i] = r
	}
	s.Run(dur)
	total := 0.0
	for i := range s.sockets {
		after, err := s.ReadRAPL(i)
		if err != nil {
			return 0, err
		}
		p, d, err := s.RAPLPowerW(before[i], after)
		if err != nil {
			return 0, err
		}
		total += p + d
	}
	return total, nil
}
