package workload

// FIRESTARTER payload generation (Section VIII). The real tool emits an
// assembly loop built from groups of four instructions (I1..I4) sized to
// the 16-byte fetch window, one group per cycle in the ideal case:
//
//	I1: packed-double FMA on registers (reg, mem) or a store to the
//	    group's cache level (L1, L2, L3);
//	I2: an FMA combinable with a load (L1, L2, L3, mem);
//	I3: a right shift;
//	I4: a xor (reg) or a pointer-increment add (L1, L2, L3, mem).
//
// Groups target each memory level at the published ratio
// (27.8 % reg, 62.7 % L1, 7.1 % L2, 0.8 % L3, 1.6 % mem), and the whole
// loop must overflow the micro-op cache while fitting the L1 instruction
// cache so the decoders stay busy. This file reproduces that
// construction; the Firestarter kernel's profile constants are derived
// from (and tested against) the generated payload.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// MemLevel is the memory level an instruction group targets.
type MemLevel int

const (
	LevelReg MemLevel = iota
	LevelL1
	LevelL2
	LevelL3
	LevelMem
)

func (l MemLevel) String() string {
	switch l {
	case LevelReg:
		return "reg"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// InstrClass is the role of one instruction inside a group.
type InstrClass int

const (
	FMAReg     InstrClass = iota // packed double FMA on registers
	FMAStore                     // FMA plus store to the level
	FMALoad                      // FMA combined with a load
	ShiftRight                   // right shift
	XorReg                       // xor (reg groups)
	AddPointer                   // add incrementing the level pointer
)

func (c InstrClass) String() string {
	switch c {
	case FMAReg:
		return "vfmadd (reg)"
	case FMAStore:
		return "vfmadd+store"
	case FMALoad:
		return "vfmadd+load"
	case ShiftRight:
		return "shr"
	case XorReg:
		return "xor"
	case AddPointer:
		return "add ptr"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Instr is one modeled instruction.
type Instr struct {
	Class InstrClass
	Bytes int // encoded length; four per group fill the 16 B fetch window
}

// Group is one 4-instruction fetch-window group.
type Group struct {
	Level  MemLevel
	Instrs [4]Instr
}

// FLOPs returns the double-precision FLOPs the group performs (256-bit
// packed double FMA = 4 lanes x 2 ops).
func (g Group) FLOPs() int {
	n := 0
	for _, in := range g.Instrs {
		switch in.Class {
		case FMAReg, FMAStore, FMALoad:
			n += 8
		}
	}
	return n
}

// BytesMoved returns the group's data traffic at its memory level (one
// 256-bit access per load/store instruction).
func (g Group) BytesMoved() int {
	if g.Level == LevelReg {
		return 0
	}
	n := 0
	for _, in := range g.Instrs {
		switch in.Class {
		case FMAStore, FMALoad:
			n += 32
		}
	}
	return n
}

// Payload is a generated stress loop.
type Payload struct {
	Groups []Group
}

// FSRatios is the published group mix.
var FSRatios = map[MemLevel]float64{
	LevelReg: FSGroupReg,
	LevelL1:  FSGroupL1,
	LevelL2:  FSGroupL2,
	LevelL3:  FSGroupL3,
	LevelMem: FSGroupMem,
}

// ICacheConstraints bound the loop size: it must overflow the micro-op
// cache (so the decoders keep working) yet fit the L1I cache.
type ICacheConstraints struct {
	UopCacheUops int // 1536 on Haswell
	L1IBytes     int // 32 KiB
	UopsPerGroup int // 4 instructions -> ~4 fused uops
	GroupBytes   int // 16-byte fetch window
}

// HaswellICache returns the Haswell front-end geometry.
func HaswellICache() ICacheConstraints {
	return ICacheConstraints{UopCacheUops: 1536, L1IBytes: 32 << 10, UopsPerGroup: 4, GroupBytes: 16}
}

// MinGroups/MaxGroups derive the legal loop-size window.
func (c ICacheConstraints) MinGroups() int { return c.UopCacheUops/c.UopsPerGroup + 1 }
func (c ICacheConstraints) MaxGroups() int { return c.L1IBytes / c.GroupBytes }

// GeneratePayload builds a deterministic loop of n groups at the
// published level mix, interleaving levels smoothly (Bresenham-style
// error accumulation) so the power draw stays constant within the loop.
// n is clamped into the legal window.
func GeneratePayload(c ICacheConstraints, n int) *Payload {
	if min := c.MinGroups(); n < min {
		n = min
	}
	if max := c.MaxGroups(); n > max {
		n = max
	}
	levels := []MemLevel{LevelReg, LevelL1, LevelL2, LevelL3, LevelMem}
	acc := make(map[MemLevel]float64, len(levels))
	p := &Payload{Groups: make([]Group, 0, n)}
	for i := 0; i < n; i++ {
		// Pick the level with the largest accumulated deficit.
		best := levels[0]
		bestDef := -1.0
		for _, l := range levels {
			acc[l] += FSRatios[l]
			if def := acc[l]; def > bestDef {
				best, bestDef = l, def
			}
		}
		acc[best] -= 1
		p.Groups = append(p.Groups, makeGroup(best))
	}
	return p
}

// makeGroup assembles the I1..I4 sequence for a level (the Section VIII
// construction).
func makeGroup(l MemLevel) Group {
	g := Group{Level: l}
	// I1: FMA on registers (reg, mem) or a store to the cache level.
	switch l {
	case LevelReg, LevelMem:
		g.Instrs[0] = Instr{Class: FMAReg, Bytes: 4}
	default:
		g.Instrs[0] = Instr{Class: FMAStore, Bytes: 4}
	}
	// I2: FMA with a load for anything that touches memory.
	if l == LevelReg {
		g.Instrs[1] = Instr{Class: FMAReg, Bytes: 4}
	} else {
		g.Instrs[1] = Instr{Class: FMALoad, Bytes: 4}
	}
	// I3: right shift.
	g.Instrs[2] = Instr{Class: ShiftRight, Bytes: 4}
	// I4: xor (reg) or pointer increment.
	if l == LevelReg {
		g.Instrs[3] = Instr{Class: XorReg, Bytes: 4}
	} else {
		g.Instrs[3] = Instr{Class: AddPointer, Bytes: 4}
	}
	return g
}

// Stats summarizes a payload.
type PayloadStats struct {
	Groups       int
	Bytes        int
	Uops         int
	LevelFrac    map[MemLevel]float64
	FLOPsPerLoop int
	// Traffic per instruction at the uncore-visible levels.
	L3BytesPerInst  float64
	MemBytesPerInst float64
	// FPInstrFrac is the fraction of instructions that are 256-bit ops.
	FPInstrFrac float64
	// MaxLevelRun is the longest run of consecutive same-level groups
	// (smooth interleaving keeps this small for the dominant levels).
	MaxLevelRun int
}

// Stats computes the payload's properties.
func (p *Payload) Stats() PayloadStats {
	st := PayloadStats{
		Groups:    len(p.Groups),
		LevelFrac: map[MemLevel]float64{},
	}
	counts := map[MemLevel]int{}
	fp := 0
	run, maxRun := 0, 0
	var prev MemLevel = -1
	l3bytes, membytes := 0, 0
	for _, g := range p.Groups {
		counts[g.Level]++
		st.Bytes += 16
		st.Uops += 4
		st.FLOPsPerLoop += g.FLOPs()
		for _, in := range g.Instrs {
			switch in.Class {
			case FMAReg, FMAStore, FMALoad:
				fp++
			}
		}
		switch g.Level {
		case LevelL3:
			l3bytes += g.BytesMoved()
		case LevelMem:
			membytes += g.BytesMoved()
		}
		if g.Level == prev {
			run++
		} else {
			run = 1
			prev = g.Level
		}
		if run > maxRun {
			maxRun = run
		}
	}
	n := float64(len(p.Groups))
	for l, c := range counts {
		st.LevelFrac[l] = float64(c) / n
	}
	inst := n * 4
	st.L3BytesPerInst = float64(l3bytes) / inst
	st.MemBytesPerInst = float64(membytes) / inst
	st.FPInstrFrac = float64(fp) / inst
	st.MaxLevelRun = maxRun
	return st
}

// DeriveProfile converts payload statistics into an execution profile,
// anchored at the measured IPC values (3.1 with HT, 2.8 without, at the
// Table IV operating point).
func (st PayloadStats) DeriveProfile() Profile {
	ref := Firestarter().ProfileAt(0)
	return Profile{
		IPC1:            ref.IPC1,
		IPC2:            ref.IPC2,
		AVXFrac:         st.FPInstrFrac,
		Activity:        1.0,
		L3BytesPerInst:  st.L3BytesPerInst,
		MemBytesPerInst: st.MemBytesPerInst,
		UncoreSens:      ref.UncoreSens,
		UncoreRefGHz:    ref.UncoreRefGHz,
	}
}

// FirestarterFromPayload builds a FIRESTARTER kernel whose profile is
// derived from an actual generated payload rather than the published
// summary constants.
func FirestarterFromPayload(p *Payload) Kernel {
	return Static("FIRESTARTER (generated payload)", p.Stats().DeriveProfile())
}

func TestPayloadSizeWindow(t *testing.T) {
	c := HaswellICache()
	// "the stresstest loop has to be larger than the micro-op cache but
	// small enough for the L1 instruction cache."
	if c.MinGroups()*c.UopsPerGroup <= c.UopCacheUops {
		t.Fatalf("minimum loop (%d uops) does not overflow the uop cache (%d)",
			c.MinGroups()*c.UopsPerGroup, c.UopCacheUops)
	}
	if c.MaxGroups()*c.GroupBytes > c.L1IBytes {
		t.Fatalf("maximum loop (%d B) overflows L1I (%d B)",
			c.MaxGroups()*c.GroupBytes, c.L1IBytes)
	}
	// Clamping: requests outside the window land inside it.
	for _, n := range []int{0, 1, 100000} {
		p := GeneratePayload(c, n)
		g := len(p.Groups)
		if g < c.MinGroups() || g > c.MaxGroups() {
			t.Errorf("GeneratePayload(%d) -> %d groups outside [%d, %d]",
				n, g, c.MinGroups(), c.MaxGroups())
		}
	}
}

func TestPayloadRatiosMatchPaper(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	for level, want := range FSRatios {
		got := st.LevelFrac[level]
		if math.Abs(got-want) > 0.005 {
			t.Errorf("%v fraction = %.4f, want %.4f (Section VIII mix)", level, got, want)
		}
	}
}

func TestPayloadGroupStructure(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 500)
	for i, g := range p.Groups {
		total := 0
		for _, in := range g.Instrs {
			total += in.Bytes
		}
		if total != 16 {
			t.Fatalf("group %d is %d bytes, want the 16-byte fetch window", i, total)
		}
		// I3 is always the shift; I4 is xor only for reg groups.
		if g.Instrs[2].Class != ShiftRight {
			t.Fatalf("group %d I3 = %v, want shr", i, g.Instrs[2].Class)
		}
		if g.Level == LevelReg {
			if g.Instrs[3].Class != XorReg || g.Instrs[0].Class != FMAReg {
				t.Fatalf("reg group %d malformed: %+v", i, g)
			}
		} else {
			if g.Instrs[3].Class != AddPointer {
				t.Fatalf("memory group %d I4 = %v, want add ptr", i, g.Instrs[3].Class)
			}
			if g.Instrs[1].Class != FMALoad {
				t.Fatalf("memory group %d I2 = %v, want FMA+load", i, g.Instrs[1].Class)
			}
		}
		// Stores only for cache levels, not reg/mem groups (I1 rule).
		if g.Level == LevelReg || g.Level == LevelMem {
			if g.Instrs[0].Class == FMAStore {
				t.Fatalf("group %d at %v has a store I1", i, g.Level)
			}
		} else if g.Instrs[0].Class != FMAStore {
			t.Fatalf("cache group %d I1 = %v, want FMA+store", i, g.Instrs[0].Class)
		}
	}
}

func TestPayloadInterleavingSmooth(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	// The Bresenham distribution keeps same-level runs short (constant
	// power pattern); the dominant L1 level can repeat a couple of
	// times, but long monocultures would defeat the design.
	if st.MaxLevelRun > 4 {
		t.Errorf("longest same-level run = %d, want smooth interleaving", st.MaxLevelRun)
	}
}

func TestPayloadDerivedProfileMatchesKernel(t *testing.T) {
	// The summary constants baked into Firestarter() must agree with a
	// profile derived from an actual generated payload.
	p := GeneratePayload(HaswellICache(), 1000)
	derived := p.Stats().DeriveProfile()
	ref := Firestarter().ProfileAt(0)
	if math.Abs(derived.L3BytesPerInst-ref.L3BytesPerInst) > 0.01 {
		t.Errorf("L3 traffic: derived %.4f vs kernel %.4f B/inst", derived.L3BytesPerInst, ref.L3BytesPerInst)
	}
	if math.Abs(derived.MemBytesPerInst-ref.MemBytesPerInst) > 0.01 {
		t.Errorf("DRAM traffic: derived %.4f vs kernel %.4f B/inst", derived.MemBytesPerInst, ref.MemBytesPerInst)
	}
	if math.Abs(derived.AVXFrac-ref.AVXFrac) > 0.02 {
		t.Errorf("FP fraction: derived %.3f vs kernel %.3f", derived.AVXFrac, ref.AVXFrac)
	}
	if err := derived.Validate(); err != nil {
		t.Fatal(err)
	}
	k := FirestarterFromPayload(p)
	if k.ProfileAt(0) != derived {
		t.Error("kernel wrapper lost the derived profile")
	}
}

func TestPayloadFLOPDensity(t *testing.T) {
	p := GeneratePayload(HaswellICache(), 1000)
	st := p.Stats()
	// Every group carries two FMA-class instructions -> 16 FLOPs/group,
	// i.e. 4 FLOPs per instruction: "a high ratio of floating point
	// operations with frequent loads and stores".
	flopsPerInst := float64(st.FLOPsPerLoop) / float64(st.Groups*4)
	if flopsPerInst < 3.9 || flopsPerInst > 4.1 {
		t.Errorf("FLOPs/inst = %.2f, want ~4", flopsPerInst)
	}
	if st.FPInstrFrac < 0.45 || st.FPInstrFrac > 0.55 {
		t.Errorf("FP instruction fraction = %.2f, want ~0.5", st.FPInstrFrac)
	}
}

func TestPayloadDeterministicProperty(t *testing.T) {
	c := HaswellICache()
	f := func(n uint16) bool {
		a := GeneratePayload(c, int(n))
		b := GeneratePayload(c, int(n))
		if len(a.Groups) != len(b.Groups) {
			return false
		}
		for i := range a.Groups {
			if a.Groups[i] != b.Groups[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelAndClassStringers(t *testing.T) {
	for _, l := range []MemLevel{LevelReg, LevelL1, LevelL2, LevelL3, LevelMem, MemLevel(99)} {
		if l.String() == "" {
			t.Fatal("empty level string")
		}
	}
	for c := FMAReg; c <= AddPointer+1; c++ {
		if c.String() == "" {
			t.Fatal("empty class string")
		}
	}
}
