// Package ring models the Haswell-EP on-die ring interconnect layouts of
// Figure 1: a single bidirectional ring on the 8-core die, and
// partitioned dies (8+4 cores on the 12-core die, 8+10 on the 18-core
// die) whose rings are joined by buffered queues. Each partition owns an
// integrated memory controller (IMC) serving two DDR channels.
//
// In the processor's default configuration this structure is invisible
// to software (Section II-A); the simulator uses it to derive average
// hop counts for uncore latency and to attribute DRAM channels to
// partitions.
package ring

import "fmt"

// Partition is one bidirectional ring with its attached IMC.
type Partition struct {
	Index    int
	CoreIDs  []int
	IMC      bool // has an integrated memory controller
	Channels int  // DDR channels behind this partition's IMC
}

// Topology is the full die layout.
type Topology struct {
	DieCores   int
	Partitions []Partition
	// QueueLatencyUncoreCycles is the buffered-queue penalty for a
	// transfer that crosses partitions, in uncore cycles.
	QueueLatencyUncoreCycles float64
	// HopUncoreCycles is the per-ring-stop traversal cost.
	HopUncoreCycles float64
}

// ForDie builds the topology for a Haswell-EP die with the given number
// of core slots (8, 12 or 18, per Figure 1).
func ForDie(dieCores int) (*Topology, error) {
	t := &Topology{
		DieCores:                 dieCores,
		QueueLatencyUncoreCycles: 6,
		HopUncoreCycles:          1,
	}
	switch dieCores {
	case 8:
		t.Partitions = []Partition{
			{Index: 0, CoreIDs: seq(0, 8), IMC: true, Channels: 4},
		}
	case 12:
		t.Partitions = []Partition{
			{Index: 0, CoreIDs: seq(0, 8), IMC: true, Channels: 2},
			{Index: 1, CoreIDs: seq(8, 12), IMC: true, Channels: 2},
		}
	case 18:
		t.Partitions = []Partition{
			{Index: 0, CoreIDs: seq(0, 8), IMC: true, Channels: 2},
			{Index: 1, CoreIDs: seq(8, 18), IMC: true, Channels: 2},
		}
	default:
		return nil, fmt.Errorf("ring: no Haswell-EP die with %d cores", dieCores)
	}
	return t, nil
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// PartitionOf returns the partition index that owns core c, or -1.
func (t *Topology) PartitionOf(c int) int {
	for _, p := range t.Partitions {
		for _, id := range p.CoreIDs {
			if id == c {
				return p.Index
			}
		}
	}
	return -1
}

// Cores returns the total number of core slots.
func (t *Topology) Cores() int {
	n := 0
	for _, p := range t.Partitions {
		n += len(p.CoreIDs)
	}
	return n
}

// Channels returns the total DDR channels on the die.
func (t *Topology) Channels() int {
	n := 0
	for _, p := range t.Partitions {
		n += p.Channels
	}
	return n
}

// HopsWithin returns the average number of ring stops traversed for a
// request from a core in partition p to a uniformly distributed L3 slice
// in the same partition (bidirectional ring: expected distance is n/4).
func (t *Topology) HopsWithin(p int) float64 {
	n := len(t.Partitions[p].CoreIDs)
	if n <= 1 {
		return 0
	}
	return float64(n) / 4
}

// AvgL3HopCycles returns the expected uncore-cycle cost of the ring
// traversal for an L3 access from core c, with addresses hashed
// uniformly across all slices on the die. Cross-partition slices pay the
// queue penalty plus the remote ring's expected distance.
func (t *Topology) AvgL3HopCycles(c int) float64 {
	home := t.PartitionOf(c)
	if home < 0 {
		return 0
	}
	total := 0.0
	all := float64(t.Cores())
	for _, p := range t.Partitions {
		frac := float64(len(p.CoreIDs)) / all
		if p.Index == home {
			total += frac * t.HopsWithin(p.Index) * t.HopUncoreCycles
		} else {
			total += frac * (t.QueueLatencyUncoreCycles +
				(t.HopsWithin(home)+t.HopsWithin(p.Index))*t.HopUncoreCycles)
		}
	}
	return total
}

// AvgIMCHopCycles returns the expected uncore-cycle ring cost to reach an
// IMC from core c with memory interleaved across all channels.
func (t *Topology) AvgIMCHopCycles(c int) float64 {
	home := t.PartitionOf(c)
	if home < 0 {
		return 0
	}
	total := 0.0
	all := float64(t.Channels())
	for _, p := range t.Partitions {
		if !p.IMC {
			continue
		}
		frac := float64(p.Channels) / all
		cost := t.HopsWithin(p.Index) * t.HopUncoreCycles
		if p.Index != home {
			cost += t.QueueLatencyUncoreCycles + t.HopsWithin(home)*t.HopUncoreCycles
		}
		total += frac * cost
	}
	return total
}

// DisabledCoreMask returns which core slots are fused off when a SKU
// enables only `enabled` of the die's cores. Slots are disabled from the
// high end of each partition proportionally, mirroring how Intel bins
// partial-die parts.
func (t *Topology) DisabledCoreMask(enabled int) ([]bool, error) {
	total := t.Cores()
	if enabled <= 0 || enabled > total {
		return nil, fmt.Errorf("ring: cannot enable %d of %d cores", enabled, total)
	}
	disabled := make([]bool, total)
	toDisable := total - enabled
	// Walk partitions round-robin from the end, disabling the last slot
	// of the partition with the most still-enabled cores.
	counts := make([]int, len(t.Partitions))
	for i, p := range t.Partitions {
		counts[i] = len(p.CoreIDs)
	}
	for d := 0; d < toDisable; d++ {
		best := 0
		for i := range counts {
			if counts[i] > counts[best] {
				best = i
			}
		}
		p := t.Partitions[best]
		disabled[p.CoreIDs[counts[best]-1]] = true
		counts[best]--
	}
	return disabled, nil
}
