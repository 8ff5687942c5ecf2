package main

import (
	"crypto/sha256"
	"hash"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// The end-to-end times are pass times in units of a fixed reference
// loop timed next to each pass in the same process. On a shared host
// the neighbours' load slows the simulator by up to 2x for minutes at a
// time; it slows the loop too, so the ratio drifts far less than the
// raw times (README.md gives the calibration). The loop is ordinary Go
// work of the simulator's kinds: map updates over a working set of
// about a megabyte, sorting, hashing and float formatting, then
// transcendental float math like the power model's. It allocates
// nothing after warm-up, so the GC state a pass leaves behind does not
// leak into it.

// refSeconds is the scale of the normalized times: about what one
// reference loop takes on the 2-core reference box when the host is
// quiet, so that wall_s and setup_s read as seconds on such a host.
const refSeconds = 0.040

// mapIters and mathIters are the reference loop's fixed amounts of
// work, about equal shares of its time.
const (
	mapIters  = 150_000
	mathIters = 250_000
)

type refRec struct {
	k uint32
	v float64
}

// hostRef holds the reference loop's state, allocated once.
type hostRef struct {
	m   map[uint32]uint32
	xs  []refRec
	buf []byte
	sum []byte
	h   hash.Hash
}

// newHostRef allocates the loop's state and runs it once untimed, so
// later runs allocate nothing.
func newHostRef() *hostRef {
	r := &hostRef{m: make(map[uint32]uint32, 1<<16), xs: make([]refRec, 0, 4096),
		buf: make([]byte, 0, 64), sum: make([]byte, 0, sha256.Size), h: sha256.New()}
	r.loop()
	return r
}

func (r *hostRef) loop() {
	clear(r.m)
	r.h.Reset()
	x := uint64(0x9e3779b97f4a7c15)
	var s uint64
	for i := 0; i < mapIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := uint32(x % 50_000)
		r.m[k] += uint32(i)
		r.xs = append(r.xs, refRec{k, float64(x%1000) * 1.5})
		if len(r.xs) == cap(r.xs) {
			slices.SortFunc(r.xs, func(a, b refRec) int { return int(a.k) - int(b.k) })
			s += uint64(r.xs[len(r.xs)/2].k)
			r.xs = r.xs[:0]
		}
		if i%64 == 0 {
			r.buf = strconv.AppendFloat(r.buf[:0], float64(x%100_000)/7, 'g', -1, 64)
			r.h.Write(r.buf)
		}
	}
	r.xs = r.xs[:0]
	r.sum = r.h.Sum(r.sum[:0])
	sink += float64(s + uint64(len(r.m)) + uint64(r.sum[0]))

	y, z, acc := 0.5, 1.25, 0.0
	for range mathIters {
		y = math.Mod(y*1.000001+0.37, 50)
		z = 1 + math.Mod(z*1.3, 3)
		acc += math.Exp(-y*0.02)*math.Pow(z, 1.3) + math.Sqrt(y+z)/(1+y)
	}
	sink += acc
}

// time collects the garbage the last pass left, so its collection is
// not timed as the loop's, and returns the loop's wall seconds.
func (r *hostRef) time() float64 {
	runtime.GC()
	t0 := time.Now()
	r.loop()
	return time.Since(t0).Seconds()
}

// timedPasses runs the timed passes of one measuring process after its
// set-up: the reference loop before the first pass and after each, and
// passes while the next is expected to end within budget of the
// process's exec at t0. At least one pass runs. Each pass, and the
// set-up, record the reference time around them; each pass also records
// its peak RSS.
func timedPasses(setup *pass, t0 time.Time, budget time.Duration, run func(i int) pass) ([]pass, error) {
	ref := newHostRef()
	before := ref.time()
	setup.Ref = before
	var passes []pass
	for i := 0; ; i++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p := run(i)
		var err error
		if p.PeakRSS, err = peakRSSMiB(); err != nil {
			return nil, err
		}
		after := ref.time()
		p.Ref = (before + after) / 2
		before = after
		passes = append(passes, p)
		if time.Since(t0)+secs(p.Wall) > budget {
			return passes, nil
		}
	}
}

// normalized is wall in reference units, as seconds at refSeconds per
// loop.
func normalized(wall, ref float64) float64 { return refSeconds * ratio(wall, ref) }
