package stats

import (
	"math"
	"sort"
)

// Online accumulates streaming descriptive statistics in O(1) space:
// the mean (Welford's update), minimum and maximum. The fleet study
// reduces its per-node results through it. The zero value is ready to
// use.
type Online struct {
	n        int64
	mean     float64
	min, max float64
}

// Add folds one sample into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.mean = x
		o.min, o.max = x, x
		return
	}
	o.mean += (x - o.mean) / float64(o.n)
	if x < o.min {
		o.min = x
	}
	if x > o.max {
		o.max = x
	}
}

// Mean returns the running mean (0 when empty, matching Mean).
func (o *Online) Mean() float64 { return o.mean }

// Min returns the smallest sample seen (0 when empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample seen (0 when empty).
func (o *Online) Max() float64 { return o.max }

// P2Quantile estimates a single quantile of a stream in O(1) space
// with the P² algorithm (Jain & Chlamtac, CACM 1985): five markers
// track the quantile and its neighborhood, adjusted toward ideal
// positions with piecewise-parabolic interpolation. Below five samples
// the estimate is exact (computed from the buffered samples), so small
// fleets report true quantiles. Use NewP2Quantile to construct.
type P2Quantile struct {
	p    float64
	n    int64
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired positions
	inc  [5]float64 // desired-position increments
}

// NewP2Quantile returns an estimator for the p-quantile (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	e := &P2Quantile{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add folds one sample into the estimator.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Find the cell x falls in and update extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	e.n++
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.inc[i]
	}
	// Nudge interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			q := e.parabolic(i, s)
			if e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+s)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-s)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback height prediction.
func (e *P2Quantile) linear(i int, s float64) float64 {
	return e.q[i] + s*(e.q[int(float64(i)+s)]-e.q[i])/(e.pos[int(float64(i)+s)]-e.pos[i])
}

// Value returns the current quantile estimate; NaN when empty
// (matching Quantile on an empty slice).
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		buf := make([]float64, e.n)
		copy(buf, e.q[:e.n])
		return Quantile(buf, e.p)
	}
	return e.q[2]
}
