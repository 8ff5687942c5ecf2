package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hswsim/internal/obs"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
}

// TestEmptyInputsDefined pins the empty-input contract: Mean returns a
// defined 0 (never NaN) and each empty call is counted in the obs
// registry.
func TestEmptyInputsDefined(t *testing.T) {
	before := obs.StatsEmptyInputs.Value()
	if v := Mean([]float64{}); v != 0 {
		t.Fatalf("Mean(empty) = %v, want 0", v)
	}
	if v := Mean(nil); v != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", v)
	}
	if got := obs.StatsEmptyInputs.Value(); got <= before {
		t.Fatalf("obs.StatsEmptyInputs did not advance: %d -> %d", before, got)
	}
	// Non-empty inputs must not count.
	mid := obs.StatsEmptyInputs.Value()
	Mean([]float64{1, 2})
	if got := obs.StatsEmptyInputs.Value(); got != mid {
		t.Fatalf("non-empty inputs advanced StatsEmptyInputs: %d -> %d", mid, got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if q := Quantile(xs, 0); q != 10 {
		t.Fatalf("q0 = %v, want 10", q)
	}
	if q := Quantile(xs, 1); q != 50 {
		t.Fatalf("q1 = %v, want 50", q)
	}
	if q := Quantile(xs, 0.25); q != 20 {
		t.Fatalf("q0.25 = %v, want 20", q)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatalf("invalid quantile inputs should give NaN")
	}
	// Median must not modify its input.
	ys := []float64{9, 1, 5}
	Median(ys)
	if ys[0] != 9 || ys[1] != 1 || ys[2] != 5 {
		t.Fatalf("Median modified its input: %v", ys)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v want -1,7", lo, hi)
	}
}

func TestPolyFitRecoversQuadratic(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1 - 0.5*x + 0.25*x*x
	}
	c, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -0.5, 0.25}
	for i := range want {
		if !approx(c[i], want[i], 1e-9) {
			t.Fatalf("coeff[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	if r2 := RSquared(c, xs, ys); !approx(r2, 1, 1e-12) {
		t.Fatalf("R² = %v, want 1", r2)
	}
}

func TestPolyFitDegenerate(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{2}, 2); err == nil {
		t.Fatalf("underdetermined fit did not error")
	}
	// All x identical → singular normal matrix for degree 1.
	if _, err := PolyFit([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Fatalf("singular fit did not error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1}, 1); err == nil {
		t.Fatalf("mismatched lengths did not error")
	}
}

func TestRSquaredImperfectFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1.1, 1.9, 3.2}
	c, err := PolyFit(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2 := RSquared(c, xs, ys)
	if r2 <= 0.9 || r2 >= 1 {
		t.Fatalf("R² = %v, want in (0.9, 1)", r2)
	}
}

func TestMaxAbsResidual(t *testing.T) {
	c := []float64{0, 1} // y = x
	xs := []float64{0, 1, 2}
	ys := []float64{0, 1.5, 2}
	if r := MaxAbsResidual(c, xs, ys); !approx(r, 0.5, 1e-12) {
		t.Fatalf("MaxAbsResidual = %v, want 0.5", r)
	}
}

func TestPolyFitProperty(t *testing.T) {
	// Property: fitting exact polynomial samples recovers the polynomial
	// (within numerical tolerance) for arbitrary small coefficients.
	f := func(a, b, c int8) bool {
		ca, cb, cc := float64(a)/10, float64(b)/10, float64(c)/10
		xs := []float64{-3, -2, -1, 0, 1, 2, 3, 4}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = ca + cb*x + cc*x*x
		}
		got, err := PolyFit(xs, ys, 2)
		if err != nil {
			return false
		}
		return approx(got[0], ca, 1e-6) && approx(got[1], cb, 1e-6) && approx(got[2], cc, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.99, -1, 10, 42} {
		h.Add(x)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under/overflow = %d/%d, want 1/2", h.Underflow, h.Overflow)
	}
	wantBins := []int{2, 1, 1, 0, 1}
	for i, want := range wantBins {
		if h.Bins[i] != want {
			t.Fatalf("Bins = %v, want %v", h.Bins, wantBins)
		}
	}
}

func TestHistogramStatsAndCenters(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, x := range []float64{10, 20, 30, 40} {
		h.Add(x)
	}
	if m := h.Median(); m != 25 {
		t.Fatalf("Median = %v, want 25", m)
	}
	if h.Min() != 10 || h.Max() != 40 {
		t.Fatalf("Min/Max = %v/%v, want 10/40", h.Min(), h.Max())
	}
}

func TestHistogramRenderContainsCounts(t *testing.T) {
	h := NewHistogram(0, 4, 2)
	h.Add(1)
	h.Add(3)
	h.Add(99)
	out := h.Render(10, "us")
	if out == "" {
		t.Fatalf("empty render")
	}
	if !containsAll(out, "us", "above range") {
		t.Fatalf("render missing expected parts:\n%s", out)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	return len(sub) == 0 || len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewHistogram with hi<=lo did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}
