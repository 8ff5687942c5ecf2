package hswsim

import (
	"hswsim/internal/sim"
	"hswsim/internal/workload"
)

// Kernel is a workload model runnable on a simulated core. A custom
// kernel's ProfileAt must be a pure function of its argument: cores
// running an equal kernel from the same instant share one evaluation.
type Kernel = workload.Kernel

// Profile describes a kernel's instantaneous execution characteristics.
type Profile = workload.Profile

// The Figure 2 RAPL-validation microbenchmark set.
func BusyWait() Kernel         { return workload.BusyWait() }
func Compute() Kernel          { return workload.Compute() }
func Sqrt() Kernel             { return workload.Sqrt() }
func Memory() Kernel           { return workload.Memory() }
func DGEMM() Kernel            { return workload.DGEMM() }
func Sinus(period Time) Kernel { return workload.Sinus(period) }

// The stress workloads of Tables IV and V.
func Firestarter() Kernel { return workload.Firestarter() }
func Linpack() Kernel     { return workload.Linpack() }
func Mprime() Kernel      { return workload.Mprime() }

// The bandwidth kernels of Figures 7 and 8.
func L3Stream() Kernel  { return workload.L3Stream() }
func MemStream() Kernel { return workload.MemStream() }

// NUMAStream streams from DRAM with the given fraction of accesses
// served by the remote socket over QPI.
func NUMAStream(remoteFrac float64) Kernel { return workload.NUMAStream(remoteFrac) }

// PointerChase is a dependent-load latency microbenchmark (one miss in
// flight); Triad is a STREAM-triad-like bandwidth kernel.
func PointerChase() Kernel { return workload.PointerChase() }
func Triad() Kernel        { return workload.Triad() }

// Stream picks the cache level a read benchmark exercises by footprint.
func Stream(footprintBytes, l2Bytes, l3Bytes int) Kernel {
	return workload.Stream(footprintBytes, l2Bytes, l3Bytes)
}

// CustomKernel builds a constant-profile kernel from an explicit
// execution profile.
func CustomKernel(name string, p Profile) Kernel { return workload.Static(name, p) }

// PhasedKernel alternates between two profiles with the given
// half-period — useful for studying energy-efficient turbo's reaction
// to phase changes (Section II-E).
func PhasedKernel(name string, a, b Profile, halfPeriod Time) Kernel {
	return &workload.Phased{Label: name, A: a, B: b, HalfPeriod: sim.Time(halfPeriod)}
}

// Fig2Kernels returns the Figure 2 workload set (nil entry = idle).
func Fig2Kernels() []Kernel { return workload.Fig2Set() }

// KernelName renders a kernel's name, mapping nil to "idle".
func KernelName(k Kernel) string { return workload.NameOf(k) }

// ScriptedSegment is one phase of a trace-driven kernel.
type ScriptedSegment = workload.Segment

// ScriptedKernel replays (duration, profile) segments in a loop —
// trace-driven workload reproduction.
func ScriptedKernel(name string, segments ...ScriptedSegment) (Kernel, error) {
	return workload.NewScripted(name, segments...)
}
