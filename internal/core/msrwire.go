package core

import (
	"fmt"

	"hswsim/internal/msr"
	"hswsim/internal/perfctr"
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

// msrLayout is the immutable half of the platform's MSR surface: the
// shared msr.Layout (register map + handlers) plus the register-file
// slot bases where the mutable words live. One layout is built per root
// system and shared by reference with every fork; handlers reach the
// owning system through the issuing device's Owner() indirection, so no
// handler closes over a particular *System and forking the device is a
// three-word copy plus a copy of the register file.
type msrLayout struct {
	lay *msr.Layout

	// Register-file slot bases (see msr.Layout.Words).
	epbBase      int // ncpu words: IA32_ENERGY_PERF_BIAS
	perfctlBase  int // ncpu words: IA32_PERF_CTL
	pkgLimitBase int // nsock words: MSR_PKG_POWER_LIMIT
	uncLimitBase int // nsock words: MSR_UNCORE_RATIO_LIMIT
}

// buildMSRLayout wires the platform's model-specific registers — the
// software-visible control/observation surface the paper's tools use —
// into a shared layout. The closures may capture the configuration
// (spec, counts, slot bases), never a particular system.
func buildMSRLayout(spec *uarch.Spec, ncpu, nsock int) *msrLayout {
	lay := msr.NewLayout()
	ml := &msrLayout{
		lay:          lay,
		epbBase:      lay.Words(ncpu),
		perfctlBase:  lay.Words(ncpu),
		pkgLimitBase: lay.Words(nsock),
		uncLimitBase: lay.Words(nsock),
	}

	// IA32_ENERGY_PERF_BIAS: per-CPU, writable; feeds the PCU. The raw
	// word lives in the register file; the effect of a write (the core's
	// EPB bits) travels with the cloned cores on fork, so no write side
	// effects ever need replaying.
	lay.Implement(msr.IA32_ENERGY_PERF_BIAS, &msr.LFunc{
		Reg: msr.IA32_ENERGY_PERF_BIAS,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.IA32_ENERGY_PERF_BIAS, CPU: cpu}
			}
			return d.Load(ml.epbBase + cpu), nil
		},
		WriteFn: func(d *msr.Device, cpu int, v uint64) error {
			if cpu < 0 || cpu >= ncpu {
				return &msr.GPFault{Reg: msr.IA32_ENERGY_PERF_BIAS, CPU: cpu, Write: true}
			}
			d.Store(ml.epbBase+cpu, v)
			s := d.Owner().(*System)
			if c := s.coreOf(cpu); c != nil {
				c.epbBits = v & 0xF
				c.sk.telChanged()
			}
			return nil
		},
	})

	// MSR_RAPL_POWER_UNIT: fixed units (power 1/8 W, energy 2^-14 J,
	// time 1/1024 s).
	lay.Implement(msr.MSR_RAPL_POWER_UNIT, &msr.LConst{
		Reg: msr.MSR_RAPL_POWER_UNIT, V: msr.PowerUnitValue(3, 14, 10),
	})

	// MSR_PLATFORM_INFO: base (non-turbo) ratio in bits 15:8.
	lay.Implement(msr.MSR_PLATFORM_INFO, &msr.LConst{
		Reg: msr.MSR_PLATFORM_INFO, V: uint64(spec.BaseMHz/100) << 8,
	})

	// IA32_TIME_STAMP_COUNTER / IA32_APERF / IA32_MPERF.
	snapReg := func(reg uint32, field func(perfctr.Snapshot) uint64) *msr.LFunc {
		return &msr.LFunc{
			Reg: reg,
			ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
				s := d.Owner().(*System)
				c := s.coreOf(cpu)
				if c == nil {
					return 0, &msr.GPFault{Reg: reg, CPU: cpu}
				}
				return field(c.Snapshot()), nil
			},
		}
	}
	lay.Implement(msr.IA32_TIME_STAMP_COUNTER, snapReg(msr.IA32_TIME_STAMP_COUNTER,
		func(sn perfctr.Snapshot) uint64 { return sn.TSC }))
	lay.Implement(msr.IA32_APERF, snapReg(msr.IA32_APERF,
		func(sn perfctr.Snapshot) uint64 { return sn.APERF }))
	lay.Implement(msr.IA32_MPERF, snapReg(msr.IA32_MPERF,
		func(sn perfctr.Snapshot) uint64 { return sn.MPERF }))

	// IA32_PERF_CTL / IA32_PERF_STATUS: ratio in bits 15:8.
	lay.Implement(msr.IA32_PERF_CTL, &msr.LFunc{
		Reg: msr.IA32_PERF_CTL,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.IA32_PERF_CTL, CPU: cpu}
			}
			return d.Load(ml.perfctlBase + cpu), nil
		},
		WriteFn: func(d *msr.Device, cpu int, v uint64) error {
			if cpu < 0 || cpu >= ncpu {
				return &msr.GPFault{Reg: msr.IA32_PERF_CTL, CPU: cpu, Write: true}
			}
			d.Store(ml.perfctlBase+cpu, v)
			ratio := (v >> 8) & 0xFF
			s := d.Owner().(*System)
			if err := s.SetPState(cpu, uarch.MHz(ratio*100)); err != nil {
				panic(err) // cpu validated above
			}
			return nil
		},
	})
	lay.Implement(msr.IA32_PERF_STATUS, &msr.LFunc{
		Reg: msr.IA32_PERF_STATUS,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			s := d.Owner().(*System)
			c := s.coreOf(cpu)
			if c == nil {
				return 0, &msr.GPFault{Reg: msr.IA32_PERF_STATUS, CPU: cpu}
			}
			s.integrateTo(s.Engine.Now())
			return uint64(c.FreqMHz()/100) << 8, nil
		},
	})

	// RAPL energy status counters.
	lay.Implement(msr.MSR_PKG_ENERGY_STATUS, &msr.LFunc{
		Reg: msr.MSR_PKG_ENERGY_STATUS,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_PKG_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.Pkg.Counter(), nil
		},
	})
	lay.Implement(msr.MSR_DRAM_ENERGY_STATUS, &msr.LFunc{
		Reg: msr.MSR_DRAM_ENERGY_STATUS,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu || !spec.RAPLDRAMSupported {
				return 0, &msr.GPFault{Reg: msr.MSR_DRAM_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.DRAM.Counter(), nil
		},
	})
	// MSR_PP0_ENERGY_STATUS: present pre-Haswell, #GP on Haswell-EP
	// (Section IV: "The power domain for core consumption (PP0) is not
	// supported on Haswell-EP").
	lay.Implement(msr.MSR_PP0_ENERGY_STATUS, &msr.LFunc{
		Reg: msr.MSR_PP0_ENERGY_STATUS,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu || !spec.PP0Supported {
				return 0, &msr.GPFault{Reg: msr.MSR_PP0_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.PP0.Counter(), nil
		},
	})

	// MSR_PKG_POWER_LIMIT: package-scoped, writable; bits 14:0 carry the
	// limit in 1/8 W units, bit 15 enables it. Writes reprogram the
	// PCU's enforced limit (the hardware-enforced power bound path).
	lay.Implement(msr.MSR_PKG_POWER_LIMIT, &msr.LFunc{
		Reg: msr.MSR_PKG_POWER_LIMIT,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_PKG_POWER_LIMIT, CPU: cpu}
			}
			s := d.Owner().(*System)
			return d.Load(ml.pkgLimitBase + s.SocketOf(cpu)), nil
		},
		WriteFn: func(d *msr.Device, cpu int, v uint64) error {
			if cpu < 0 || cpu >= ncpu {
				return &msr.GPFault{Reg: msr.MSR_PKG_POWER_LIMIT, CPU: cpu, Write: true}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			sock := s.SocketOf(cpu)
			d.Store(ml.pkgLimitBase+sock, v)
			if tr := s.trace; tr != nil {
				tr.Begin(s.Engine.Now(), trace.SpanPowerLimit, sock, -1, powerLimitLabel(v, spec.Power.TDP))
			}
			if v&(1<<15) != 0 {
				s.sockets[sock].PCU.SetTDPWatts(float64(v&0x7FFF) / 8)
			} else {
				// Limit disabled: fall back to the rated TDP.
				s.sockets[sock].PCU.SetTDPWatts(spec.Power.TDP)
			}
			return nil
		},
	})

	// MSR_UNCORE_RATIO_LIMIT (Section II-D): undocumented when the paper
	// shipped, later documented as max ratio in bits 6:0 and min ratio
	// in bits 14:8. Writes bound the UFS decisions.
	lay.Implement(msr.MSR_UNCORE_RATIO_LIMIT, &msr.LFunc{
		Reg: msr.MSR_UNCORE_RATIO_LIMIT,
		ReadFn: func(d *msr.Device, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_UNCORE_RATIO_LIMIT, CPU: cpu}
			}
			s := d.Owner().(*System)
			return d.Load(ml.uncLimitBase + s.SocketOf(cpu)), nil
		},
		WriteFn: func(d *msr.Device, cpu int, v uint64) error {
			if cpu < 0 || cpu >= ncpu {
				return &msr.GPFault{Reg: msr.MSR_UNCORE_RATIO_LIMIT, CPU: cpu, Write: true}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			sock := s.SocketOf(cpu)
			d.Store(ml.uncLimitBase+sock, v)
			max := uarch.MHz(v&0x7F) * 100
			min := uarch.MHz((v>>8)&0x7F) * 100
			s.sockets[sock].PCU.SetUncoreLimits(min, max)
			return nil
		},
	})

	return ml
}

// initFile seeds a freshly minted register file with the power-on
// values (EPB balanced, power limit at rated TDP, uncore limits at the
// spec range; PERF_CTL words start at zero). Forked systems never call
// this — they copy the parent's file.
func (ml *msrLayout) initFile(d *msr.Device, spec *uarch.Spec, ncpu, nsock int) {
	for i := 0; i < ncpu; i++ {
		d.Store(ml.epbBase+i, 6) // balanced
	}
	for i := 0; i < nsock; i++ {
		d.Store(ml.pkgLimitBase+i, uint64(spec.Power.TDP*8)|1<<15)
		d.Store(ml.uncLimitBase+i, uint64(spec.UncoreMaxMHz/100)|uint64(spec.UncoreMinMHz/100)<<8)
	}
}
