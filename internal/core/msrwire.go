package core

import (
	"fmt"

	"hswsim/internal/msr"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
)

// powerLimitLabel is the SpanPowerLimit label for an
// MSR_PKG_POWER_LIMIT value: the enforced limit (the rated TDP when
// bit 15 leaves the limit disabled) and the raw register.
func powerLimitLabel(v uint64, tdp float64) string {
	if v&(1<<15) != 0 {
		return fmt.Sprintf("%.1f W (raw %#x)", float64(v&0x7FFF)/8, v)
	}
	return fmt.Sprintf("TDP %.1f W (raw %#x)", tdp, v)
}

// ReadMSR performs rdmsr of reg on logical CPU cpu — the software-
// visible observation surface the paper's tools use. Registers the
// platform does not model, a CPU outside [0, CPUs) and an energy status
// register of a RAPL domain the spec lacks all fault with a GPFault;
// the two package-invariant registers (RAPL units, platform info)
// answer any CPU. The writable registers read back the raw word last
// written. Reading a counter or the current clock first integrates to
// the present instant; no other read integrates.
func (s *System) ReadMSR(cpu int, reg uint32) (uint64, error) {
	switch reg {
	case msr.MSR_RAPL_POWER_UNIT:
		// Fixed units: power 1/8 W, energy 2^-14 J, time 1/1024 s.
		return msr.PowerUnitValue(3, 14, 10), nil
	case msr.MSR_PLATFORM_INFO:
		// Base (non-turbo) ratio in bits 15:8.
		return uint64(s.cfg.Spec.BaseMHz/100) << 8, nil
	}
	c := s.coreOf(cpu)
	if c == nil {
		return 0, &msr.GPFault{Reg: reg, CPU: cpu}
	}
	sk := c.sk
	switch reg {
	case msr.IA32_TIME_STAMP_COUNTER:
		return c.Snapshot().TSC, nil
	case msr.IA32_APERF:
		return c.Snapshot().APERF, nil
	case msr.IA32_MPERF:
		return c.Snapshot().MPERF, nil
	case msr.IA32_PERF_STATUS:
		// Current ratio in bits 15:8.
		s.integrateTo(s.Engine.Now())
		return uint64(c.FreqMHz()/100) << 8, nil
	case msr.IA32_PERF_CTL:
		return c.perfCtl, nil
	case msr.IA32_ENERGY_PERF_BIAS:
		return c.epb, nil
	case msr.MSR_PKG_POWER_LIMIT:
		return sk.powerLimit, nil
	case msr.MSR_UNCORE_RATIO_LIMIT:
		return sk.uncoreLimit, nil
	case msr.MSR_PKG_ENERGY_STATUS:
		s.integrateTo(s.Engine.Now())
		return sk.RAPL.Pkg.Counter(), nil
	case msr.MSR_DRAM_ENERGY_STATUS:
		if s.cfg.Spec.RAPLDRAMSupported {
			s.integrateTo(s.Engine.Now())
			return sk.RAPL.DRAM.Counter(), nil
		}
	case msr.MSR_PP0_ENERGY_STATUS:
		// Present pre-Haswell, #GP on Haswell-EP (Section IV: "The
		// power domain for core consumption (PP0) is not supported on
		// Haswell-EP").
		if s.cfg.Spec.PP0Supported {
			s.integrateTo(s.Engine.Now())
			return sk.RAPL.PP0.Counter(), nil
		}
	}
	return 0, &msr.GPFault{Reg: reg, CPU: cpu}
}

// WriteMSR performs wrmsr of v to reg on logical CPU cpu — the control
// surface. Four registers are writable; each keeps the raw word beside
// what it steers, so a fork's struct copy carries it. A write to any
// other register, or on a CPU outside [0, CPUs), faults with a GPFault.
func (s *System) WriteMSR(cpu int, reg uint32, v uint64) error {
	c := s.coreOf(cpu)
	if c == nil {
		return &msr.GPFault{Reg: reg, CPU: cpu, Write: true}
	}
	sk := c.sk
	switch reg {
	case msr.IA32_ENERGY_PERF_BIAS:
		// Per-CPU; bits 3:0 feed the PCU (pcu.EPBFromBits).
		c.epb = v
		sk.telChanged()
	case msr.IA32_PERF_CTL:
		// Requested ratio in bits 15:8: the cpufreq p-state path.
		c.perfCtl = v
		if err := s.SetPState(cpu, uarch.MHz(((v>>8)&0xFF)*100)); err != nil {
			panic(err) // cpu validated above
		}
	case msr.MSR_PKG_POWER_LIMIT:
		// Package-scoped: bits 14:0 carry the limit in 1/8 W units, bit
		// 15 enables it. Writes reprogram the PCU's enforced limit (the
		// hardware-enforced power bound path).
		s.integrateTo(s.Engine.Now())
		sk.powerLimit = v
		if tr := s.trace; tr != nil {
			tr.Begin(s.Engine.Now(), trace.SpanPowerLimit, sk.Index, -1, powerLimitLabel(v, sk.Spec.Power.TDP))
		}
		if v&(1<<15) != 0 {
			sk.PCU.SetTDPWatts(float64(v&0x7FFF) / 8)
		} else {
			// Limit disabled: fall back to the rated TDP.
			sk.PCU.SetTDPWatts(sk.Spec.Power.TDP)
		}
	case msr.MSR_UNCORE_RATIO_LIMIT:
		// Section II-D: undocumented when the paper shipped, later
		// documented as max ratio in bits 6:0 and min ratio in bits
		// 14:8. Writes bound the UFS decisions.
		s.integrateTo(s.Engine.Now())
		sk.uncoreLimit = v
		max := uarch.MHz(v&0x7F) * 100
		min := uarch.MHz((v>>8)&0x7F) * 100
		sk.PCU.SetUncoreLimits(min, max)
	default:
		return &msr.GPFault{Reg: reg, CPU: cpu, Write: true}
	}
	return nil
}
