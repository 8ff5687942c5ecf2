package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hswsim/internal/msr"
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// FuzzMSR drives two identical default nodes through the same decoded
// operations, one through ReadMSR/WriteMSR and the other through the
// reference register layout in msrref_test.go. After every operation
// the two must return equal values and equal GPFault fields, and at the
// end they must render identical outputs: the switch integrates,
// faults and reads back exactly where the layout's handlers did.
func FuzzMSR(f *testing.F) {
	for _, seed := range msrSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runMSROps(t, ops)
	})
}

// The FuzzMSR operations. A read takes three bytes (opcode, register,
// CPU) and a write eleven (the same plus the value, little-endian); the
// register byte indexes modeledMSRs with one extra slot for an
// unmodeled register, and the CPU byte indexes msrCPUs. A run that
// advances only the event engine leaves the platform integrated to its
// last event, as a timer callback finds it, so the register operations
// that follow show where an access integrates.
const (
	opMSRRead   = iota
	opMSRWrite  // value in the next 8 bytes
	opMSRRun    // run 50 µs + ((a&0x7F)<<8|b)%1951 µs; a&0x80: the event engine only
	opMSRFork   // fork and continue on the child, keeping the parent
	opMSRRefork // release the child and fork the kept parent again
	numMSROps
)

// unmodeledMSR is a real register (IA32_MISC_ENABLE) the platform does
// not model.
const unmodeledMSR = 0x1A0

// msrCPUs returns the CPUs an operation can name: one out of range
// below, the first, one inside, the last, and two out of range above.
func msrCPUs(sys *System) []int { return []int{-1, 0, 5, sys.CPUs() - 1, sys.CPUs(), 9999} }

// msrOp encodes one register operation on the CPU msrCPUs()[cpuIndex];
// v is used by writes only.
func msrOp(op int, reg uint32, cpuIndex int, v uint64) []byte {
	ri := len(modeledMSRs)
	for i, r := range modeledMSRs {
		if r == reg {
			ri = i
		}
	}
	b := []byte{byte(op), byte(ri), byte(cpuIndex)}
	if op == opMSRWrite {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// msrRun encodes a run of us microseconds (50–2000).
func msrRun(us int) []byte { return []byte{opMSRRun, byte((us - 50) >> 8), byte((us - 50) & 0xff)} }

// msrEngineRun encodes a run of us microseconds of the event engine
// alone.
func msrEngineRun(us int) []byte {
	b := msrRun(us)
	b[1] |= 0x80
	return b
}

// msrSeeds are TestMSRSurface's writes and reads (EPB on CPU 5 rather
// than 3, which msrCPUs does not name), a PP0 read on Haswell-EP and
// other accesses between engine-only runs, and the writable words
// across a fork and a pooled re-fork.
func msrSeeds() [][]byte {
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	const cpu0, cpu5, last = 1, 2, 3
	return [][]byte{
		cat(msrOp(opMSRWrite, msr.IA32_ENERGY_PERF_BIAS, cpu5, 0),
			msrOp(opMSRRead, msr.IA32_ENERGY_PERF_BIAS, cpu5, 0),
			msrOp(opMSRRead, msr.MSR_PP0_ENERGY_STATUS, cpu0, 0),
			msrOp(opMSRRead, msr.MSR_PLATFORM_INFO, cpu0, 0),
			msrOp(opMSRWrite, msr.IA32_PERF_CTL, cpu0, 18<<8),
			msrRun(2000), msrRun(2000), msrRun(1000),
			msrOp(opMSRRead, msr.IA32_PERF_STATUS, cpu0, 0),
			msrOp(opMSRRead, msr.IA32_PERF_CTL, cpu0, 0),
			msrOp(opMSRWrite, msr.MSR_UNCORE_RATIO_LIMIT, cpu0, 20|12<<8),
			msrRun(2000),
			msrOp(opMSRWrite, msr.MSR_RAPL_POWER_UNIT, cpu0, 1),
			msrOp(opMSRWrite, msr.MSR_PLATFORM_INFO, cpu0, 1),
			msrOp(opMSRWrite, msr.MSR_PKG_ENERGY_STATUS, cpu0, 0),
			msrOp(opMSRRead, msr.MSR_PKG_ENERGY_STATUS, cpu0, 0)),
		cat(msrEngineRun(1000), msrOp(opMSRRead, msr.MSR_PP0_ENERGY_STATUS, cpu0, 0),
			msrEngineRun(1500), msrOp(opMSRRead, msr.IA32_ENERGY_PERF_BIAS, cpu5, 0),
			msrOp(opMSRRead, msr.MSR_PKG_POWER_LIMIT, last, 0),
			msrOp(opMSRRead, msr.MSR_UNCORE_RATIO_LIMIT, cpu0, 0),
			msrEngineRun(800), msrOp(opMSRRead, msr.MSR_PKG_ENERGY_STATUS, last, 0),
			msrEngineRun(1200), msrOp(opMSRRead, msr.MSR_DRAM_ENERGY_STATUS, cpu0, 0),
			msrEngineRun(900), msrOp(opMSRRead, msr.IA32_PERF_STATUS, cpu5, 0),
			msrEngineRun(600), msrOp(opMSRWrite, msr.MSR_UNCORE_RATIO_LIMIT, last, 24|12<<8),
			msrRun(2000)),
		cat(msrOp(opMSRWrite, msr.MSR_PKG_POWER_LIMIT, last, 0xdead<<32|85*8|1<<15),
			msrOp(opMSRWrite, msr.IA32_ENERGY_PERF_BIAS, cpu0, 0xF0),
			msrEngineRun(2000), []byte{opMSRFork},
			msrOp(opMSRWrite, msr.MSR_PKG_POWER_LIMIT, last, 0),
			msrOp(opMSRWrite, msr.IA32_PERF_CTL, cpu5, 12<<8),
			msrOp(opMSRWrite, msr.MSR_UNCORE_RATIO_LIMIT, cpu0, 0xffff),
			msrRun(700), []byte{opMSRRefork},
			msrOp(opMSRRead, msr.MSR_PKG_POWER_LIMIT, last, 0),
			msrOp(opMSRRead, msr.IA32_PERF_CTL, cpu5, 0),
			msrOp(opMSRRead, msr.MSR_UNCORE_RATIO_LIMIT, cpu0, 0),
			msrOp(opMSRRead, msr.IA32_ENERGY_PERF_BIAS, cpu0, 0),
			msrRun(2000), msrOp(opMSRRead, msr.IA32_APERF, last, 0)),
	}
}

// msrNode is one FuzzMSR node: the system an operation acts on, the
// parent a re-fork forks again, and, on the reference side, the
// register devices of both.
type msrNode struct {
	sys, parent *System
	dev, pdev   *refMSRDevice
}

// newMSRNode builds the default node with FIRESTARTER on four cores of
// socket 0 and mprime on two of socket 1, so p-state and limit writes
// move power and the phase-varying kernel integrates in full.
func newMSRNode(t *testing.T, ref bool) *msrNode {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if err := sys.AssignKernel(cpu, workload.Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	for cpu := 12; cpu < 14; cpu++ {
		if err := sys.AssignKernel(cpu, workload.Mprime(), 2); err != nil {
			t.Fatal(err)
		}
	}
	n := &msrNode{sys: sys}
	if ref {
		n.dev = newRefMSRDevice(sys)
	}
	return n
}

func (n *msrNode) read(cpu int, reg uint32) (uint64, error) {
	if n.dev != nil {
		return n.dev.Read(cpu, reg)
	}
	return n.sys.ReadMSR(cpu, reg)
}

func (n *msrNode) write(cpu int, reg uint32, v uint64) error {
	if n.dev != nil {
		return n.dev.Write(cpu, reg, v)
	}
	return n.sys.WriteMSR(cpu, reg, v)
}

func (n *msrNode) fork(t *testing.T) {
	child, err := n.sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	n.parent, n.sys = n.sys, child
	if n.dev != nil {
		n.pdev, n.dev = n.dev, n.dev.Fork(child)
	}
}

// refork releases the current child and forks the kept parent again:
// the pooled child comes back, and the reference refills its device.
func (n *msrNode) refork(t *testing.T) {
	if n.parent == nil {
		return
	}
	n.sys.Release()
	child, err := n.parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	n.sys = child
	if n.dev != nil {
		n.pdev.ForkInto(n.dev, child)
	}
}

// runMSROps decodes up to 64 operations and runs them on both nodes.
func runMSROps(t *testing.T, ops []byte) {
	got, want := newMSRNode(t, false), newMSRNode(t, true)
	cpus := msrCPUs(got.sys)
ops:
	for n := 0; n < 64 && len(ops) > 0; n++ {
		op := ops[0] % numMSROps
		switch op {
		case opMSRRead, opMSRWrite:
			size := 3
			if op == opMSRWrite {
				size = 11
			}
			if len(ops) < size {
				break ops
			}
			reg := uint32(unmodeledMSR)
			if i := int(ops[1]) % (len(modeledMSRs) + 1); i < len(modeledMSRs) {
				reg = modeledMSRs[i]
			}
			cpu := cpus[int(ops[2])%len(cpus)]
			var gv, wv uint64
			var gerr, werr error
			if op == opMSRRead {
				gv, gerr = got.read(cpu, reg)
				wv, werr = want.read(cpu, reg)
			} else {
				v := binary.LittleEndian.Uint64(ops[3:11])
				gerr, werr = got.write(cpu, reg, v), want.write(cpu, reg, v)
			}
			ops = ops[size:]
			if gv != wv {
				t.Fatalf("op %d: rdmsr %s on cpu %d = %#x, reference %#x", n, msr.Name(reg), cpu, gv, wv)
			}
			if !sameFault(gerr, werr) {
				t.Fatalf("op %d: %s on cpu %d: fault %v, reference %v", n, msr.Name(reg), cpu, gerr, werr)
			}
		case opMSRRun:
			if len(ops) < 3 {
				break ops
			}
			d := 50*sim.Microsecond + sim.Time((int(ops[1]&0x7F)<<8|int(ops[2]))%1951)*sim.Microsecond
			if ops[1]&0x80 != 0 {
				got.sys.Engine.Run(d)
				want.sys.Engine.Run(d)
			} else {
				got.sys.Run(d)
				want.sys.Run(d)
			}
			ops = ops[3:]
		case opMSRFork:
			ops = ops[1:]
			got.fork(t)
			want.fork(t)
		case opMSRRefork:
			ops = ops[1:]
			got.refork(t)
			want.refork(t)
		}
	}
	if g, w := renderOutputs(t, got.sys), renderOutputs(t, want.sys); g != w {
		t.Fatalf("switch and reference nodes diverge: %s", firstDiff(w, g))
	}
}

// sameFault reports whether two access results are both nil or both
// GPFaults with equal fields.
func sameFault(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ga, gb *msr.GPFault
	return errors.As(a, &ga) && errors.As(b, &gb) && *ga == *gb
}
