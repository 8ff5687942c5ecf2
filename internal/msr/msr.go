// Package msr names the model-specific registers through which the
// paper's tools observe and steer the processor: RAPL energy counters,
// the energy/performance bias, p-state control, and the (undocumented)
// uncore ratio limit. It holds the register numbers, the #GP-style
// fault that rdmsr/wrmsr of an unimplemented or read-only register
// raises — the awkward part of real MSR access, reproduced faithfully
// but safely — and the RAPL unit decoding. The platform serves the
// registers itself (core.System.ReadMSR and WriteMSR).
package msr

import "fmt"

// Register numbers for the modeled MSRs (Intel SDM Vol. 4 numbering).
const (
	IA32_TIME_STAMP_COUNTER = 0x10
	IA32_MPERF              = 0xE7
	IA32_APERF              = 0xE8
	MSR_PLATFORM_INFO       = 0xCE
	IA32_PERF_STATUS        = 0x198
	IA32_PERF_CTL           = 0x199
	IA32_ENERGY_PERF_BIAS   = 0x1B0
	MSR_RAPL_POWER_UNIT     = 0x606
	MSR_PKG_POWER_LIMIT     = 0x610
	MSR_PKG_ENERGY_STATUS   = 0x611
	MSR_DRAM_ENERGY_STATUS  = 0x619
	MSR_UNCORE_RATIO_LIMIT  = 0x620
	MSR_PP0_ENERGY_STATUS   = 0x639
)

// Name returns the symbolic name of a known register.
func Name(reg uint32) string {
	switch reg {
	case IA32_TIME_STAMP_COUNTER:
		return "IA32_TIME_STAMP_COUNTER"
	case IA32_MPERF:
		return "IA32_MPERF"
	case IA32_APERF:
		return "IA32_APERF"
	case MSR_PLATFORM_INFO:
		return "MSR_PLATFORM_INFO"
	case IA32_PERF_STATUS:
		return "IA32_PERF_STATUS"
	case IA32_PERF_CTL:
		return "IA32_PERF_CTL"
	case IA32_ENERGY_PERF_BIAS:
		return "IA32_ENERGY_PERF_BIAS"
	case MSR_RAPL_POWER_UNIT:
		return "MSR_RAPL_POWER_UNIT"
	case MSR_PKG_POWER_LIMIT:
		return "MSR_PKG_POWER_LIMIT"
	case MSR_PKG_ENERGY_STATUS:
		return "MSR_PKG_ENERGY_STATUS"
	case MSR_DRAM_ENERGY_STATUS:
		return "MSR_DRAM_ENERGY_STATUS"
	case MSR_UNCORE_RATIO_LIMIT:
		return "MSR_UNCORE_RATIO_LIMIT"
	case MSR_PP0_ENERGY_STATUS:
		return "MSR_PP0_ENERGY_STATUS"
	default:
		return fmt.Sprintf("MSR_%#x", reg)
	}
}

// GPFault is the error returned for access to an unimplemented register
// or a write to a read-only one — the software-visible effect of a
// general-protection fault on rdmsr/wrmsr.
type GPFault struct {
	Reg   uint32
	CPU   int
	Write bool
}

func (e *GPFault) Error() string {
	op := "rdmsr"
	if e.Write {
		op = "wrmsr"
	}
	return fmt.Sprintf("msr: #GP on %s %s (cpu %d)", op, Name(e.Reg), e.CPU)
}

// RAPL unit-register helpers (MSR_RAPL_POWER_UNIT layout):
// bits 3:0 power unit (1/2^p W), 12:8 energy unit (1/2^e J),
// 19:16 time unit (1/2^t s).

// PowerUnitValue builds MSR_RAPL_POWER_UNIT contents from exponents.
func PowerUnitValue(powerExp, energyExp, timeExp uint) uint64 {
	return uint64(powerExp&0xF) | uint64(energyExp&0x1F)<<8 | uint64(timeExp&0xF)<<16
}

// EnergyUnitJoules extracts the package energy unit in joules from a
// MSR_RAPL_POWER_UNIT value.
func EnergyUnitJoules(unitReg uint64) float64 {
	exp := (unitReg >> 8) & 0x1F
	return 1 / float64(uint64(1)<<exp)
}

// DRAMEnergyUnitJoules returns the energy unit that must be used for the
// DRAM domain on Haswell-EP: a fixed 15.3 uJ regardless of the unit
// register (Section IV; using the unit register's value — "DRAM mode 0"
// semantics — yields unreasonably high power readings).
const DRAMEnergyUnitJoulesHaswellEP = 15.3e-6
