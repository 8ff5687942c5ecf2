package core

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"hswsim/internal/eprof"
	"hswsim/internal/obs"
	"hswsim/internal/power"
	"hswsim/internal/sim"
	"hswsim/internal/trace"
)

// forkPool is the tree-wide free list of released fork children. One
// pool is created per root system and shared (by pointer) with every
// fork, so any released child's storage — engine, socket/core slabs —
// can be recycled by the next Fork anywhere in the tree.
//
// A plain mutex-guarded slice rather than a sync.Pool: reuse must be
// deterministic (tests assert a released child is reused, and the GC
// must not silently drop warm storage between sweep points).
type forkPool struct {
	mu   sync.Mutex
	free []*System
}

// forkPoolMax bounds the free list; children released beyond it are
// left to the GC.
const forkPoolMax = 256

func (p *forkPool) get() *System {
	p.mu.Lock()
	var c *System
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	return c
}

func (p *forkPool) put(c *System) {
	p.mu.Lock()
	if len(p.free) < forkPoolMax {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

// Release returns a forked system's storage to the tree's child free
// list so a subsequent Fork can recycle it instead of allocating. Only
// fork children are poolable; calling Release on a root system is a
// no-op. The caller must not touch the system afterwards — the next
// Fork may overwrite it wholesale.
func (s *System) Release() {
	if s.releaseTo == nil {
		return
	}
	s.releaseTo.put(s)
}

// Fork produces an independent copy of the platform whose future
// evolution is bitwise-identical to continuing the original: same
// virtual clock, same event tie-break order, same RNG streams, same
// component state. Parent and child then diverge only through the
// operations applied to each — the foundation for running sweep points
// concurrently from one warmed-up platform.
//
// Mechanically, a fork is struct copies plus slice copies: every
// component is embedded by value in its socket/core shell (the MSR
// register words included), and each component's internal slices
// (residency bins, PCU bookkeeping, meter samples) are copied once, at
// fork time, into storage harvested from the recycled child. Copying
// on every fork is what makes harvesting sound (every pooled child's
// storage is private by induction), and it is what makes steady-state
// fork/Release cycles allocation-free. The span ring and the energy
// profile, when enabled, are copied into newly allocated collectors. The pending platform
// timers (per-socket PCU grid tick, meter sample, in-flight p-state
// completions) are re-created declaratively on the child engine with
// their original (time, sequence) coordinates through the closure-free
// Handler path, so re-arming allocates nothing.
//
// Fork requires a quiescent platform: no events other than the
// platform's own timers may be pending (experiment-level Every
// closures, WakeCore one-shots and governor timers close over the
// parent and cannot be transplanted). Forking with foreign events
// pending returns an error.
//
// On an integrated parent (which any quiescent system is — every Run /
// RunUntil ends with an integrateTo) Fork leaves the parent read-only
// except for the lock-protected child free list, so many goroutines may
// fork the same parent concurrently.
func (s *System) Fork() (*System, error) {
	start := time.Now()
	if err := s.forkPrep(); err != nil {
		return nil, err
	}
	n := s.pool.get()
	reused := n != nil
	if !reused {
		n = s.newChildShell()
	}
	s.populateFork(n, reused)

	if reused {
		obs.CoreForkReuse.Inc()
	}
	obs.CoreForkBytes.Add(s.forkCopiedBytes())
	obs.CoreForkWall.Observe(time.Since(start).Nanoseconds())
	return n, nil
}

// forkPrep catches the parent's accounting up to now and inventories
// the platform's own pending timers, so a foreign event is reported
// before any child storage is touched.
func (s *System) forkPrep() error {
	if s.lastIntegrate != s.Engine.Now() {
		// Catch-up path: mutates the parent, so it is only safe
		// single-threaded. Quiescent systems never take it.
		s.integrateTo(s.Engine.Now())
	}
	expected := 1 // meter sample
	for _, sk := range s.sockets {
		if !s.Engine.IsPending(sk.tickEv) {
			return fmt.Errorf("core: fork: socket %d grid tick not pending", sk.Index)
		}
		expected++
		for _, c := range sk.cores {
			if s.Engine.IsPending(c.completeEv) {
				expected++
			}
		}
	}
	if !s.Engine.IsPending(s.meterEv) {
		return fmt.Errorf("core: fork: meter sample event not pending")
	}
	if pending := s.Engine.Pending(); pending != expected {
		return fmt.Errorf("core: fork: %d foreign events pending (cannot transplant their closures); fork only a quiescent platform",
			pending-expected)
	}
	return nil
}

// newChildShell allocates a fresh child skeleton: one System, one
// socket slab and one core slab. Pool membership guarantees shape —
// the pool is only reachable from forks of this root, so a pooled child
// always has this root's socket/core geometry; shells built here enter
// the pool on Release and uphold the same guarantee.
func (s *System) newChildShell() *System {
	totalCores := 0
	for _, sk := range s.sockets {
		totalCores += len(sk.cores)
	}
	n := &System{sockets: make([]*Socket, len(s.sockets))}
	sockSlab := make([]Socket, len(s.sockets))
	coreSlab := make([]Core, totalCores)
	corePtrs := make([]*Core, totalCores)
	ci := 0
	for i, sk := range s.sockets {
		ncore := len(sk.cores)
		cores := corePtrs[ci : ci+ncore : ci+ncore]
		for j := range cores {
			cores[j] = &coreSlab[ci+j]
		}
		ci += ncore
		sockSlab[i].cores = cores
		n.sockets[i] = &sockSlab[i]
	}
	return n
}

// populateFork overwrites child n (a recycled pooled child or a fresh
// shell) with a fork of s. The caller must have run forkPrep first.
func (s *System) populateFork(n *System, reused bool) {
	var eng *sim.Engine
	if reused {
		eng = n.Engine
		eng.ResetToFork(s.Engine)
	} else {
		eng = s.Engine.Fork()
	}
	sockets := n.sockets
	// Harvest the old child's private System-level storage before the
	// overwrite (nil on a fresh shell): the meter's sample log, refilled
	// below, and scratch that refreshPackageStates rewrites through a cap
	// check before any read.
	meter := n.meter
	statesBuf := n.statesBuf

	*n = System{
		Engine:        eng,
		cfg:           s.cfg,
		sockets:       sockets,
		meter:         meter,
		rng:           s.rng,
		lastIntegrate: s.lastIntegrate,
		tsc:           s.tsc,
		tscGHz:        s.tscGHz,
		acJoules:      s.acJoules,
		lastACPower:   s.lastACPower,
		epb:           s.epb,
		pool:          s.pool,
		releaseTo:     s.pool,
		statesBuf:     statesBuf,
		trace:         s.trace.Clone(),
		eprof:         s.eprof.Fork(),
		raplJoules:    s.raplJoules,
	}
	s.meter.ForkInto(&n.meter)
	// The cloned collector carries the parent's cumulative counters;
	// baseline the child's flush marks there so the child reports only
	// its own post-fork spans to obs (the parent flushes its own
	// pre-fork deltas on its next Run).
	n.traceSpansFlushed = n.trace.SpansRecorded()
	n.traceSpanDropsFlushed = n.trace.SpanDrops()
	if n.eprof != nil {
		n.eprofSegsFlushed = n.eprof.Segments()
	}

	for i, sk := range s.sockets {
		sk.forkInto(n.sockets[i], n)
	}

	// Re-arm the platform timers on the child engine at their parent
	// (time, sequence) coordinates; arg-encoded Handler events, so no
	// closures are built.
	ncpu := s.CPUs()
	for i, sk := range s.sockets {
		nsk := n.sockets[i]
		nsk.tickEv = n.Engine.RearmHandler(sk.tickEv, n, ncpu+sk.Index)
		for j, c := range sk.cores {
			if s.Engine.IsPending(c.completeEv) {
				nsk.cores[j].completeEv = n.Engine.RearmHandler(c.completeEv, n, c.CPU)
			}
		}
	}
	n.meterEv = n.Engine.RearmHandler(s.meterEv, n, ncpu+len(s.sockets))
}

// forkCopiedBytes estimates the bytes one fork copies: the struct
// shells (System, sockets, cores — the MSR register words ride in
// them), each socket's residency slab and PCU bookkeeping and the meter
// samples, plus the span ring and the energy profile's buckets when
// they are enabled. The open-episode and interning maps are not
// counted.
func (s *System) forkCopiedBytes() int64 {
	b := int64(unsafe.Sizeof(System{}))
	for _, sk := range s.sockets {
		b += int64(unsafe.Sizeof(Socket{}))
		b += int64(len(sk.cores)) * int64(unsafe.Sizeof(Core{}))
		b += int64(len(sk.residSlab)) * int64(unsafe.Sizeof(sim.Time(0)))
		b += sk.PCU.ForkBytes()
	}
	b += int64(len(s.meter.Samples())) * int64(unsafe.Sizeof(power.Sample{}))
	b += int64(s.trace.SpanCount()) * int64(unsafe.Sizeof(trace.Span{}))
	if s.eprof != nil {
		// A bucket is a stack plus one energy and one vtime word.
		b += int64(s.eprof.NumBuckets()) * int64(unsafe.Sizeof(eprof.Stack{})+16)
	}
	return b
}

// forkInto clones this socket onto child-system storage with a struct
// copy plus fixups. Immutable structure (spec, topology, cache/IMC
// model) is shared by pointer; slice-backed component state (the
// residency slab and the PCU's bookkeeping) is copied into storage
// harvested from the recycled child. Copying on every fork is what
// makes the harvest sound: by induction every pooled child's storage is
// private, so reusing it can never touch a live sibling. Each core's
// p-state domain is a plain value and rides the core's struct copy. The
// child starts with the integration memo invalidated — its first
// segment runs the full path, which the replay contract guarantees is
// bit-for-bit identical to replaying the dropped memo.
func (sk *Socket) forkInto(nk *Socket, sys *System) {
	cores := nk.cores // preserve the child's own core storage
	// Harvest the old child's private backings before the struct copy
	// overwrites the pointers. All of these are private to the old
	// child by construction: the scratch buffers and memo slices are
	// (re)allocated by the child's own integration after forkInto nils
	// or rewrites them, and the residency slab and PCU are copied into
	// below.
	residSlab := nk.residSlab
	oldPCU := nk.PCU
	oldMemo := nk.memo
	eplanEntries := nk.eplan.Detach()
	coresBuf, pointOf, pointsBuf, pointsMeta := nk.coresBuf, nk.pointOf, nk.pointsBuf, nk.pointsMeta
	statesBuf, resultsBuf, telCores := nk.statesBuf, nk.resultsBuf, nk.telCores

	*nk = *sk
	nk.sys = sys
	nk.cores = cores
	// Events belong to the parent engine; Fork re-arms them explicitly.
	nk.tickEv = sim.EventID{}
	nk.PCU = oldPCU
	sk.PCU.ForkInto(&nk.PCU)
	// Scratch and memo state is private: reseat the harvested old-child
	// storage in place of the parent's. Every one of these is rewritten
	// through a cap check before its first read (the memo via
	// ComputeMemoized on the forced-full first segment), so stale
	// contents are unreachable.
	nk.opDirty = true
	nk.segValid = false
	nk.memo = oldMemo
	// The attribution plan points at the parent collector's buckets and
	// is invalid in the child (opDirty forces a rebuild before the first
	// Apply); reseat the harvested private backing.
	nk.eplan.Attach(eplanEntries)
	nk.coresBuf, nk.pointOf, nk.pointsBuf, nk.pointsMeta = coresBuf, pointOf, pointsBuf, pointsMeta
	// The harvested operating-point table is the old child's, never the
	// parent's: the child's first full segment must rebuild it.
	nk.regroup = true
	nk.statesBuf, nk.resultsBuf, nk.telCores = statesBuf, resultsBuf, telCores
	// The harvested telemetry buffer holds the old child's values, not
	// the parent's: force a rebuild on the child's first grid tick.
	nk.telBuilt = 0
	// Forked sockets count their own integration segments from zero.
	nk.statReplay, nk.statFull, nk.statRegroup, nk.statLoads, nk.statPoints = 0, 0, 0, 0, 0
	nk.statReplayFlushed, nk.statFullFlushed, nk.statRegroupFlushed, nk.statLoadsFlushed, nk.statPointsFlushed = 0, 0, 0, 0, 0

	// Residency: one contiguous slab per socket, copied from the parent.
	bins := residencyBins(sk.Spec)
	need := len(cores) * bins
	if cap(residSlab) >= need {
		residSlab = residSlab[:need]
	} else {
		residSlab = make([]sim.Time, need)
	}
	nk.residSlab = residSlab

	for j, c := range sk.cores {
		nc := cores[j]
		*nc = *c
		nc.sk = nk
		nc.completeEv = sim.EventID{}
		seg := residSlab[j*bins : (j+1)*bins : (j+1)*bins]
		copy(seg, c.resid.pstate)
		nc.resid.pstate = seg
	}
}
