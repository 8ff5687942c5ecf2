// Package stats supplies the small statistical toolkit the experiments
// need: descriptive statistics, histograms, and least-squares polynomial
// fits with goodness-of-fit, mirroring the analysis the paper performs
// (medians over 50 samples, latency histograms, the Figure 2 linear and
// quadratic RAPL-vs-AC fits with R² > 0.9998).
package stats

import (
	"errors"
	"math"
	"sort"

	"hswsim/internal/obs"
)

// Mean returns the arithmetic mean of xs. An empty slice yields 0, not
// NaN: a NaN from a missing sample set used to propagate through every
// downstream aggregate and render as "NaN" in tables, which hid the
// actual problem (no samples). The empty-input event is counted in the
// obs registry so run reports can flag it.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		obs.StatsEmptyInputs.Inc()
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs without modifying it, or NaN when empty.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MinMax returns the smallest and largest values in xs. It returns NaNs
// for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// ErrBadFit reports a degenerate least-squares system (too few points or a
// singular normal matrix).
var ErrBadFit = errors.New("stats: degenerate least-squares system")

// PolyFit fits y ≈ c[0] + c[1]x + ... + c[degree]x^degree by ordinary
// least squares and returns the coefficients (constant term first).
func PolyFit(xs, ys []float64, degree int) ([]float64, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, errors.New("stats: mismatched sample lengths")
	}
	k := degree + 1
	if degree < 0 || n < k {
		return nil, ErrBadFit
	}
	// Build the normal equations A c = b where A[i][j] = sum x^(i+j).
	pow := make([]float64, 2*degree+1)
	for _, x := range xs {
		xp := 1.0
		for p := 0; p <= 2*degree; p++ {
			pow[p] += xp
			xp *= x
		}
	}
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			a[i][j] = pow[i+j]
		}
	}
	for i, x := range xs {
		xp := 1.0
		for p := 0; p < k; p++ {
			b[p] += ys[i] * xp
			xp *= x
		}
	}
	c, err := solveGauss(a, b)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// solveGauss solves a dense linear system with partial pivoting. a and b
// are modified in place.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrBadFit
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// PolyEval evaluates the polynomial with coefficients c (constant first)
// at x.
func PolyEval(c []float64, x float64) float64 {
	y := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		y = y*x + c[i]
	}
	return y
}

// RSquared returns the coefficient of determination of the fit c over the
// samples (xs, ys).
func RSquared(c []float64, xs, ys []float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		return math.NaN()
	}
	meanY := Mean(ys)
	var ssRes, ssTot float64
	for i := range xs {
		r := ys[i] - PolyEval(c, xs[i])
		ssRes += r * r
		d := ys[i] - meanY
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// MaxAbsResidual returns the largest |y - fit(x)| over the samples.
func MaxAbsResidual(c []float64, xs, ys []float64) float64 {
	worst := 0.0
	for i := range xs {
		r := math.Abs(ys[i] - PolyEval(c, xs[i]))
		if r > worst {
			worst = r
		}
	}
	return worst
}
