package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic sample source for the sketch tests.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / float64(1<<53)
}

func TestOnlineMatchesBatch(t *testing.T) {
	g := lcg(42)
	var o Online
	xs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		x := 10 + 5*g.next()
		xs = append(xs, x)
		o.Add(x)
	}
	if got, want := o.Mean(), Mean(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	mn, mx := MinMax(xs)
	if o.Min() != mn || o.Max() != mx {
		t.Errorf("min/max = %v/%v, want %v/%v", o.Min(), o.Max(), mn, mx)
	}
}

func TestP2QuantileExactSmall(t *testing.T) {
	e := NewP2Quantile(0.5)
	if !math.IsNaN(e.Value()) {
		t.Fatalf("empty estimator = %v, want NaN", e.Value())
	}
	for _, x := range []float64{3, 1, 4, 2} {
		e.Add(x)
	}
	if got, want := e.Value(), Quantile([]float64{1, 2, 3, 4}, 0.5); got != want {
		t.Errorf("small-sample median = %v, want exact %v", got, want)
	}
}

func TestP2QuantileApproximatesStream(t *testing.T) {
	for _, tc := range []struct {
		p   float64
		tol float64
	}{{0.5, 0.02}, {0.01, 0.01}, {0.99, 0.01}} {
		g := lcg(99)
		e := NewP2Quantile(tc.p)
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			x := g.next()
			xs = append(xs, x)
			e.Add(x)
		}
		want := Quantile(xs, tc.p)
		if got := e.Value(); math.Abs(got-want) > tc.tol {
			t.Errorf("p=%v estimate = %v, want %v ± %v", tc.p, got, want, tc.tol)
		}
	}
}
