package core

import (
	"hswsim/internal/msr"
	"hswsim/internal/perfctr"
	"hswsim/internal/trace"
	"hswsim/internal/uarch"
)

// This file keeps the reference FuzzMSR checks System.ReadMSR and
// WriteMSR against: the MSR layout the platform served its registers
// through before the two methods' register switch. A layout is a
// registry of handler closures, built once per root system and shared
// by every fork; a handler finds its system through the issuing
// device's owner, and the writable registers keep their words in a
// per-system register file that every fork copies. The code is kept
// as it was (moved here from internal/msr and core's msrwire.go,
// renamed, and without the FileWords and Implemented accessors, which
// only the fork accounting and a register sweep read); the EPB write
// handler stores the bias into Core.epb, the field that replaced the
// core's EPB bits.

// refLayoutHandler implements one register in a shared layout. It
// receives the issuing device, through which it reaches both the
// mutable register file (d.Load/d.Store) and the owning system
// (d.Owner()).
type refLayoutHandler interface {
	ReadMSR(d *refMSRDevice, cpu int) (uint64, error)
	WriteMSR(d *refMSRDevice, cpu int, v uint64) error
}

// refMSRLayout is an immutable register map plus the size of the
// register file its handlers require.
type refMSRLayout struct {
	regs  map[uint32]refLayoutHandler
	words int
}

func newRefMSRLayout() *refMSRLayout {
	return &refMSRLayout{regs: make(map[uint32]refLayoutHandler)}
}

// Implement installs a handler for reg, replacing any previous one.
func (l *refMSRLayout) Implement(reg uint32, h refLayoutHandler) { l.regs[reg] = h }

// Words reserves n consecutive register-file words and returns the base
// slot index.
func (l *refMSRLayout) Words(n int) int {
	base := l.words
	l.words += n
	return base
}

// Device mints a root device for this layout: a zeroed register file of
// the reserved size, owned by owner.
func (l *refMSRLayout) Device(owner any) *refMSRDevice {
	return &refMSRDevice{layout: l, owner: owner, words: make([]uint64, l.words)}
}

// refMSRDevice is the per-system MSR access multiplexer: a shared
// immutable layout plus this system's register file.
type refMSRDevice struct {
	layout *refMSRLayout
	owner  any
	words  []uint64
}

func (d *refMSRDevice) Owner() any               { return d.owner }
func (d *refMSRDevice) Load(slot int) uint64     { return d.words[slot] }
func (d *refMSRDevice) Store(slot int, v uint64) { d.words[slot] = v }
func (d *refMSRDevice) Fork(owner any) *refMSRDevice {
	n := &refMSRDevice{}
	d.ForkInto(n, owner)
	return n
}

// ForkInto is Fork writing into caller-provided storage (a pooled
// child's existing device), copying into its register file.
func (d *refMSRDevice) ForkInto(dst *refMSRDevice, owner any) {
	dst.layout = d.layout
	dst.owner = owner
	dst.words = append(dst.words[:0], d.words...)
}

// Read performs rdmsr on the given logical CPU.
func (d *refMSRDevice) Read(cpu int, reg uint32) (uint64, error) {
	h, ok := d.layout.regs[reg]
	if !ok {
		return 0, &msr.GPFault{Reg: reg, CPU: cpu}
	}
	return h.ReadMSR(d, cpu)
}

// Write performs wrmsr on the given logical CPU.
func (d *refMSRDevice) Write(cpu int, reg uint32, v uint64) error {
	h, ok := d.layout.regs[reg]
	if !ok {
		return &msr.GPFault{Reg: reg, CPU: cpu, Write: true}
	}
	return h.WriteMSR(d, cpu, v)
}

// refLConst is a handler for a read-only constant.
type refLConst struct {
	Reg uint32
	V   uint64
}

func (c *refLConst) ReadMSR(d *refMSRDevice, cpu int) (uint64, error) { return c.V, nil }
func (c *refLConst) WriteMSR(d *refMSRDevice, cpu int, v uint64) error {
	return &msr.GPFault{Reg: c.Reg, CPU: cpu, Write: true}
}

// refLFunc adapts read/write callbacks to a handler; nil write means
// read-only.
type refLFunc struct {
	Reg     uint32
	ReadFn  func(d *refMSRDevice, cpu int) (uint64, error)
	WriteFn func(d *refMSRDevice, cpu int, v uint64) error
}

func (f *refLFunc) ReadMSR(d *refMSRDevice, cpu int) (uint64, error) {
	if f.ReadFn == nil {
		return 0, &msr.GPFault{Reg: f.Reg, CPU: cpu}
	}
	return f.ReadFn(d, cpu)
}

func (f *refLFunc) WriteMSR(d *refMSRDevice, cpu int, v uint64) error {
	if f.WriteFn == nil {
		return &msr.GPFault{Reg: f.Reg, CPU: cpu, Write: true}
	}
	return f.WriteFn(d, cpu, v)
}

// refMSRSlots is the layout plus the register-file slot bases where
// the writable words live.
type refMSRSlots struct {
	lay *refMSRLayout

	epbBase      int // ncpu words: IA32_ENERGY_PERF_BIAS
	perfctlBase  int // ncpu words: IA32_PERF_CTL
	pkgLimitBase int // nsock words: MSR_PKG_POWER_LIMIT
	uncLimitBase int // nsock words: MSR_UNCORE_RATIO_LIMIT
}

// newRefMSRDevice builds the reference layout for sys's configuration
// and mints sys's device with the power-on register file.
func newRefMSRDevice(sys *System) *refMSRDevice {
	spec, ncpu, nsock := sys.Spec(), sys.CPUs(), sys.Sockets()
	ml := buildRefMSRLayout(spec, ncpu, nsock)
	d := ml.lay.Device(sys)
	ml.initFile(d, spec, ncpu, nsock)
	return d
}

// buildRefMSRLayout wires the platform's model-specific registers into
// a shared layout. The closures capture the configuration (spec,
// counts, slot bases), never a particular system.
func buildRefMSRLayout(spec *uarch.Spec, ncpu, nsock int) *refMSRSlots {
	lay := newRefMSRLayout()
	ml := &refMSRSlots{
		lay:          lay,
		epbBase:      lay.Words(ncpu),
		perfctlBase:  lay.Words(ncpu),
		pkgLimitBase: lay.Words(nsock),
		uncLimitBase: lay.Words(nsock),
	}

	lay.Implement(msr.IA32_ENERGY_PERF_BIAS, &refLFunc{
		Reg: msr.IA32_ENERGY_PERF_BIAS,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.IA32_ENERGY_PERF_BIAS, CPU: cpu}
			}
			return d.Load(ml.epbBase + cpu), nil
		},
		WriteFn: func(d *refMSRDevice, cpu int, v uint64) error {
			if cpu < 0 || cpu >= ncpu {
				return &msr.GPFault{Reg: msr.IA32_ENERGY_PERF_BIAS, CPU: cpu, Write: true}
			}
			d.Store(ml.epbBase+cpu, v)
			s := d.Owner().(*System)
			if c := s.coreOf(cpu); c != nil {
				c.epb = v & 0xF
				c.sk.telChanged()
			}
			return nil
		},
	})

	lay.Implement(msr.MSR_RAPL_POWER_UNIT, &refLConst{
		Reg: msr.MSR_RAPL_POWER_UNIT, V: msr.PowerUnitValue(3, 14, 10),
	})
	lay.Implement(msr.MSR_PLATFORM_INFO, &refLConst{
		Reg: msr.MSR_PLATFORM_INFO, V: uint64(spec.BaseMHz/100) << 8,
	})

	snapReg := func(reg uint32, field func(perfctr.Snapshot) uint64) *refLFunc {
		return &refLFunc{
			Reg: reg,
			ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
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

	lay.Implement(msr.IA32_PERF_CTL, &refLFunc{
		Reg: msr.IA32_PERF_CTL,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.IA32_PERF_CTL, CPU: cpu}
			}
			return d.Load(ml.perfctlBase + cpu), nil
		},
		WriteFn: func(d *refMSRDevice, cpu int, v uint64) error {
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
	lay.Implement(msr.IA32_PERF_STATUS, &refLFunc{
		Reg: msr.IA32_PERF_STATUS,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			s := d.Owner().(*System)
			c := s.coreOf(cpu)
			if c == nil {
				return 0, &msr.GPFault{Reg: msr.IA32_PERF_STATUS, CPU: cpu}
			}
			s.integrateTo(s.Engine.Now())
			return uint64(c.FreqMHz()/100) << 8, nil
		},
	})

	lay.Implement(msr.MSR_PKG_ENERGY_STATUS, &refLFunc{
		Reg: msr.MSR_PKG_ENERGY_STATUS,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_PKG_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.Pkg.Counter(), nil
		},
	})
	lay.Implement(msr.MSR_DRAM_ENERGY_STATUS, &refLFunc{
		Reg: msr.MSR_DRAM_ENERGY_STATUS,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu || !spec.RAPLDRAMSupported {
				return 0, &msr.GPFault{Reg: msr.MSR_DRAM_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.DRAM.Counter(), nil
		},
	})
	lay.Implement(msr.MSR_PP0_ENERGY_STATUS, &refLFunc{
		Reg: msr.MSR_PP0_ENERGY_STATUS,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu || !spec.PP0Supported {
				return 0, &msr.GPFault{Reg: msr.MSR_PP0_ENERGY_STATUS, CPU: cpu}
			}
			s := d.Owner().(*System)
			s.integrateTo(s.Engine.Now())
			return s.sockets[s.SocketOf(cpu)].RAPL.PP0.Counter(), nil
		},
	})

	lay.Implement(msr.MSR_PKG_POWER_LIMIT, &refLFunc{
		Reg: msr.MSR_PKG_POWER_LIMIT,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_PKG_POWER_LIMIT, CPU: cpu}
			}
			s := d.Owner().(*System)
			return d.Load(ml.pkgLimitBase + s.SocketOf(cpu)), nil
		},
		WriteFn: func(d *refMSRDevice, cpu int, v uint64) error {
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
				s.sockets[sock].PCU.SetTDPWatts(spec.Power.TDP)
			}
			return nil
		},
	})

	lay.Implement(msr.MSR_UNCORE_RATIO_LIMIT, &refLFunc{
		Reg: msr.MSR_UNCORE_RATIO_LIMIT,
		ReadFn: func(d *refMSRDevice, cpu int) (uint64, error) {
			if cpu < 0 || cpu >= ncpu {
				return 0, &msr.GPFault{Reg: msr.MSR_UNCORE_RATIO_LIMIT, CPU: cpu}
			}
			s := d.Owner().(*System)
			return d.Load(ml.uncLimitBase + s.SocketOf(cpu)), nil
		},
		WriteFn: func(d *refMSRDevice, cpu int, v uint64) error {
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
// spec range; PERF_CTL words start at zero).
func (ml *refMSRSlots) initFile(d *refMSRDevice, spec *uarch.Spec, ncpu, nsock int) {
	for i := 0; i < ncpu; i++ {
		d.Store(ml.epbBase+i, 6) // balanced
	}
	for i := 0; i < nsock; i++ {
		d.Store(ml.pkgLimitBase+i, uint64(spec.Power.TDP*8)|1<<15)
		d.Store(ml.uncLimitBase+i, uint64(spec.UncoreMaxMHz/100)|uint64(spec.UncoreMinMHz/100)<<8)
	}
}
