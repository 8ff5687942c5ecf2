package msr

// This file splits the MSR device into two halves so that forking a
// system never rebuilds the register interface:
//
//   - Layout is the immutable per-configuration half: which registers
//     exist, how each is implemented, and where its backing state lives
//     in the register file. A layout is built once per root system and
//     shared by reference with every fork — handlers resolve the owning
//     system through the Device's Owner() indirection instead of
//     closing over it.
//   - The register file is the small mutable half: a flat []uint64 of
//     register words, one slot per piece of architectural state
//     (per-CPU EPB and PERF_CTL words, per-socket power-limit words,
//     ...). A fork copies it into the child's own file — a few hundred
//     bytes at most.

// LayoutHandler implements one register in a shared layout. It
// receives the issuing Device, through which it reaches both the
// mutable register file (d.Load/d.Store) and the owning system
// (d.Owner()) — the one indirection that lets a single handler
// instance serve every fork of a configuration.
type LayoutHandler interface {
	ReadMSR(d *Device, cpu int) (uint64, error)
	WriteMSR(d *Device, cpu int, v uint64) error
}

// Layout is an immutable register map plus the size of the register
// file its handlers require. Build it once (Implement/Words), then
// mint per-system devices with Device; never mutate it after the first
// Device call.
type Layout struct {
	regs  map[uint32]LayoutHandler
	words int
}

// NewLayout returns an empty layout.
func NewLayout() *Layout {
	return &Layout{regs: make(map[uint32]LayoutHandler)}
}

// Implement installs a handler for reg, replacing any previous one.
func (l *Layout) Implement(reg uint32, h LayoutHandler) {
	l.regs[reg] = h
}

// Words reserves n consecutive register-file words and returns the base
// slot index. Handlers store the returned base and address their state
// as base+i.
func (l *Layout) Words(n int) int {
	base := l.words
	l.words += n
	return base
}

// Device mints a root device for this layout: a zeroed register file of
// the reserved size, owned by owner.
func (l *Layout) Device(owner any) *Device {
	return &Device{layout: l, owner: owner, words: make([]uint64, l.words)}
}

// Owner returns the value the device was minted or forked for —
// layout handlers cast it back to their system type.
func (d *Device) Owner() any { return d.owner }

// Load reads one register-file word.
func (d *Device) Load(slot int) uint64 { return d.words[slot] }

// Store writes one register-file word.
func (d *Device) Store(slot int, v uint64) { d.words[slot] = v }

// FileWords returns the register-file size in words.
func (d *Device) FileWords() int { return len(d.words) }

// Fork returns a device for a forked system: same layout, a copy of the
// register file, owned by owner.
func (d *Device) Fork(owner any) *Device {
	n := &Device{}
	d.ForkInto(n, owner)
	return n
}

// ForkInto is Fork writing into caller-provided storage (a pooled
// child's existing Device), copying into its register file so reuse
// allocates nothing.
func (d *Device) ForkInto(dst *Device, owner any) {
	dst.layout = d.layout
	dst.owner = owner
	dst.words = append(dst.words[:0], d.words...)
}

// LConst is a LayoutHandler for a read-only constant (same value for
// every fork of the configuration — it lives in the layout, not the
// file).
type LConst struct {
	Reg uint32
	V   uint64
}

func (c *LConst) ReadMSR(d *Device, cpu int) (uint64, error) { return c.V, nil }
func (c *LConst) WriteMSR(d *Device, cpu int, v uint64) error {
	return &GPFault{Reg: c.Reg, CPU: cpu, Write: true}
}

// LFunc adapts read/write callbacks to a LayoutHandler; nil write means
// read-only. The callbacks must not close over any particular system —
// they receive the issuing device and resolve state via d.Owner() and
// the register file.
type LFunc struct {
	Reg     uint32
	ReadFn  func(d *Device, cpu int) (uint64, error)
	WriteFn func(d *Device, cpu int, v uint64) error
}

func (f *LFunc) ReadMSR(d *Device, cpu int) (uint64, error) {
	if f.ReadFn == nil {
		return 0, &GPFault{Reg: f.Reg, CPU: cpu}
	}
	return f.ReadFn(d, cpu)
}

func (f *LFunc) WriteMSR(d *Device, cpu int, v uint64) error {
	if f.WriteFn == nil {
		return &GPFault{Reg: f.Reg, CPU: cpu, Write: true}
	}
	return f.WriteFn(d, cpu, v)
}
