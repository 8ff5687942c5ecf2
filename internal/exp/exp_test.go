package exp

import (
	"math"
	"strings"
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/stats"
	"hswsim/internal/uarch"
)

func TestTable1RendersPaperValues(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{
		"AVX2", "2x256 Bit FMA", "192", "168", "DDR4-2133", "68.2", "9.6 GT/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2IdlePower(t *testing.T) {
	tab, idle, err := Table2(Options{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idle-261.5) > 6 {
		t.Errorf("idle power = %.1f, want ~261.5", idle)
	}
	if !strings.Contains(tab.String(), "E5-2680 v3") {
		t.Errorf("Table II missing processor model")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, tab, err := Table3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	spec := uarch.E52680v3()
	want := map[uarch.MHz][2]float64{
		spec.TurboSettingMHz(): {3.0, 2.95},
		2500:                   {2.2, 2.1},
		2300:                   {2.0, 1.9},
		2000:                   {1.75, 1.65},
		1600:                   {1.4, 1.2},
		1200:                   {1.2, 1.2},
	}
	seen := 0
	for _, r := range rows {
		w, ok := want[r.Setting]
		if !ok {
			continue
		}
		seen++
		if math.Abs(r.ActiveGHz-w[0]) > 0.05 {
			t.Errorf("setting %v: active uncore %.2f, want %.2f", r.Setting, r.ActiveGHz, w[0])
		}
		if math.Abs(r.PassiveGHz-w[1]) > 0.05 {
			t.Errorf("setting %v: passive uncore %.2f, want %.2f", r.Setting, r.PassiveGHz, w[1])
		}
	}
	if seen != len(want) {
		t.Errorf("only %d of %d expected settings present", seen, len(want))
	}
	if len(rows) != 15 {
		t.Errorf("row count = %d, want 15 (turbo + 2.5..1.2)", len(rows))
	}
	if !strings.Contains(tab.String(), "Turbo") {
		t.Error("rendered table missing Turbo row")
	}
}

func findT4(rows []Table4Row, set uarch.MHz) *Table4Row {
	for i := range rows {
		if rows[i].Setting == set {
			return &rows[i]
		}
	}
	return nil
}

func TestTable4Reproduction(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 0x5eed}
	rows, _, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	spec := uarch.E52680v3()
	turbo := findT4(rows, spec.TurboSettingMHz())
	r23 := findT4(rows, 2300)
	r22 := findT4(rows, 2200)
	r21 := findT4(rows, 2100)
	if turbo == nil || r23 == nil || r22 == nil || r21 == nil {
		t.Fatal("missing settings in Table IV rows")
	}
	// Turbo setting: opportunistic clock well below nominal (TDP-bound).
	for s := 0; s < 2; s++ {
		if turbo.CoreGHz[s] < 2.1 || turbo.CoreGHz[s] > 2.45 {
			t.Errorf("turbo sustained core p%d = %.2f, want in (2.1, 2.45)", s, turbo.CoreGHz[s])
		}
	}
	// 2.1 GHz: no throttling — measured equals setting, uncore at max.
	for s := 0; s < 2; s++ {
		if math.Abs(r21.CoreGHz[s]-2.1) > 0.03 {
			t.Errorf("2.1 setting core p%d = %.2f, want 2.1", s, r21.CoreGHz[s])
		}
		if math.Abs(r21.UncoreGHz[s]-3.0) > 0.05 {
			t.Errorf("2.1 setting uncore p%d = %.2f, want 3.0", s, r21.UncoreGHz[s])
		}
	}
	// Budget trading: lower core settings leave headroom the uncore
	// takes (2.2 uncore > 2.3 uncore > turbo uncore).
	if !(r22.UncoreGHz[0] > r23.UncoreGHz[0] && r23.UncoreGHz[0] > turbo.UncoreGHz[0]-0.05) {
		t.Errorf("uncore headroom ordering violated: turbo %.2f, 2.3 %.2f, 2.2 %.2f",
			turbo.UncoreGHz[0], r23.UncoreGHz[0], r22.UncoreGHz[0])
	}
	// The paper's headline: the 2.3 GHz setting performs at least as
	// well as the turbo setting (~+1 % IPS).
	if r23.GIPSThread[0] < turbo.GIPSThread[0]*0.995 {
		t.Errorf("IPS at 2.3 setting (%.3f) should match/beat turbo (%.3f)",
			r23.GIPSThread[0], turbo.GIPSThread[0])
	}
	// GIPS magnitude: ~3.5 per hardware thread.
	if turbo.GIPSThread[0] < 3.0 || turbo.GIPSThread[0] > 4.0 {
		t.Errorf("per-thread GIPS = %.2f, want ~3.5", turbo.GIPSThread[0])
	}
	// Processor 1 performs equal or better than processor 0.
	if turbo.CoreGHz[0] > turbo.CoreGHz[1]+0.02 {
		t.Errorf("processor 0 (%.2f) outran processor 1 (%.2f)", turbo.CoreGHz[0], turbo.CoreGHz[1])
	}
}

func t5Find(cells []Table5Cell, w string, turbo bool) []Table5Cell {
	var out []Table5Cell
	for _, c := range cells {
		if c.Workload == w && (c.Setting > 2500) == turbo {
			out = append(out, c)
		}
	}
	return out
}

func TestTable5Reproduction(t *testing.T) {
	o := Options{Scale: 0.04, Seed: 0x5eed}
	cells, tab, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 {
		t.Fatalf("cell count = %d, want 18 (3 workloads x 2 settings x 3 EPB)", len(cells))
	}
	avg := func(cs []Table5Cell, f func(Table5Cell) float64) float64 {
		s := 0.0
		for _, c := range cs {
			s += f(c)
		}
		return s / float64(len(cs))
	}
	powerOf := func(c Table5Cell) float64 { return c.PowerW }
	freqOf := func(c Table5Cell) float64 { return c.FreqGHz }

	fs := t5Find(cells, "FIRESTARTER", true)
	lp := t5Find(cells, "LINPACK", true)
	mp := t5Find(cells, "mprime", true)
	// LINPACK draws notably less than the other two (Table V).
	if avg(lp, powerOf) >= avg(fs, powerOf)-5 {
		t.Errorf("LINPACK power %.1f should be well below FIRESTARTER %.1f", avg(lp, powerOf), avg(fs, powerOf))
	}
	// FIRESTARTER and mprime are almost on par.
	if math.Abs(avg(fs, powerOf)-avg(mp, powerOf)) > 12 {
		t.Errorf("FIRESTARTER %.1f and mprime %.1f should be nearly on par", avg(fs, powerOf), avg(mp, powerOf))
	}
	// Frequency ordering: LINPACK lowest, mprime highest.
	if !(avg(lp, freqOf) < avg(fs, freqOf) && avg(fs, freqOf) < avg(mp, freqOf)+0.05) {
		t.Errorf("frequency ordering LINPACK %.2f < FIRESTARTER %.2f <= mprime %.2f violated",
			avg(lp, freqOf), avg(fs, freqOf), avg(mp, freqOf))
	}
	// Magnitudes: max power around 540-575 W; FIRESTARTER ~2.4+ GHz.
	if p := avg(fs, powerOf); p < 535 || p > 580 {
		t.Errorf("FIRESTARTER max power = %.1f, want ~560", p)
	}
	if f := avg(fs, freqOf); f < 2.25 || f > 2.55 {
		t.Errorf("FIRESTARTER sustained (HT off) = %.2f GHz, want ~2.45", f)
	}
	// EPB and turbo settings have very little impact (paper finding).
	all := t5Find(cells, "FIRESTARTER", true)
	all = append(all, t5Find(cells, "FIRESTARTER", false)...)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range all {
		lo = math.Min(lo, c.PowerW)
		hi = math.Max(hi, c.PowerW)
	}
	if hi-lo > 10 {
		t.Errorf("FIRESTARTER power spread across settings/EPB = %.1f W, want small", hi-lo)
	}
	if !strings.Contains(tab.String(), "mprime") {
		t.Error("rendered table missing mprime")
	}
}

func TestFig2HaswellQuadratic(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 0x5eed}
	res, err := Fig2(uarch.HaswellEP, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fit) != 3 {
		t.Fatalf("Haswell fit degree = %d, want quadratic", len(res.Fit)-1)
	}
	// "almost perfect correlation ... R2 > 0.9998"
	if res.R2 < 0.999 {
		t.Errorf("R^2 = %.5f, want > 0.999", res.R2)
	}
	// "remaining deviation ... below 3 W"
	if res.MaxResidual > 4 {
		t.Errorf("max residual = %.2f W, want < ~3 W", res.MaxResidual)
	}
	if spread := res.BiasSpread(); spread > 3 {
		t.Errorf("measured-RAPL per-workload bias spread = %.2f W, want small", spread)
	}
	if !strings.Contains(res.Render(), "R^2") {
		t.Error("render missing fit stats")
	}
}

func TestFig2SandyBridgeBias(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 0x5eed}
	res, err := Fig2(uarch.SandyBridgeEP, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fit) != 2 {
		t.Fatalf("SNB fit degree = %d, want linear", len(res.Fit)-1)
	}
	// Modeled RAPL: visible per-workload bias (Figure 2a).
	if spread := res.BiasSpread(); spread < 10 {
		t.Errorf("modeled-RAPL bias spread = %.2f W, want pronounced (>10 W)", spread)
	}
	hsw, err := Fig2(uarch.HaswellEP, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.R2 >= hsw.R2 {
		t.Errorf("SNB fit quality %.5f should be worse than Haswell %.5f", res.R2, hsw.R2)
	}
	if _, err := Fig2(uarch.WestmereEP, o); err == nil {
		t.Error("Fig2 on Westmere should be rejected")
	}
}

// massIn returns the fraction of h's samples in [lo, hi), counted by
// bin, so lo and hi must fall on bin edges, as Fig 3's class bounds do.
func massIn(h *stats.Histogram, lo, hi float64) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	n, in := h.Underflow+h.Overflow, 0
	for i, c := range h.Bins {
		n += c
		if edge := h.Lo + w*float64(i); edge >= lo && edge < hi {
			in += c
		}
	}
	if n == 0 {
		return 0
	}
	return float64(in) / float64(n)
}

func TestHistogramMassIn(t *testing.T) {
	h := stats.NewHistogram(0, 100, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i * 10))
	}
	if m := massIn(h, 0, 50); m != 0.5 {
		t.Fatalf("massIn = %v, want 0.5", m)
	}
	h.Add(-1)
	h.Add(100)
	if m := massIn(h, 0, 50); m != 5.0/12 {
		t.Fatalf("massIn with under- and overflow = %v, want 5/12", m)
	}
}

func TestFig3LatencyClasses(t *testing.T) {
	o := Options{Scale: 0.2, Seed: 0x5eed} // 200 samples/class
	res, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	rand := res.Histograms[RandomDelay]
	// "evenly distributed between a minimum of 21 us and a maximum of
	// 524 us"
	if rand.Min() < 15 || rand.Min() > 40 {
		t.Errorf("random-class min = %.0f us, want ~21", rand.Min())
	}
	if rand.Max() < 450 || rand.Max() > 600 {
		t.Errorf("random-class max = %.0f us, want ~524", rand.Max())
	}
	if m := massIn(rand, 100, 400); m < 0.35 {
		t.Errorf("random class not spread out: only %.0f%% in mid-range", m*100)
	}
	// "Requesting ... instantly after a frequency change ... leads to
	// around 500 us in the majority of the results."
	inst := res.Histograms[InstantAfterChange]
	if m := massIn(inst, 420, 600); m < 0.8 {
		t.Errorf("instant class: only %.0f%% near 500 us", m*100)
	}
	// "a 400 us delay ... transition time is typically about 100 us."
	d400 := res.Histograms[Delay400us]
	if med := d400.Median(); med < 50 || med > 180 {
		t.Errorf("400us-delay median = %.0f us, want ~100", med)
	}
	// "delay ... in the order of 500 us ... two different classes."
	d500 := res.Histograms[Delay500us]
	immediate := massIn(d500, 0, 100)
	full := massIn(d500, 400, 600)
	if immediate < 0.1 || full < 0.1 {
		t.Errorf("500us-delay class not bimodal: %.0f%% immediate, %.0f%% full period",
			immediate*100, full*100)
	}
	if immediate+full < 0.9 {
		t.Errorf("500us-delay mass leaked to mid-range: %.0f%%", (1-immediate-full)*100)
	}
	if !strings.Contains(res.Render(), "histogram") && !strings.Contains(res.Render(), "500") {
		t.Error("render looks empty")
	}
}

func TestFig4GridSynchronization(t *testing.T) {
	res, err := Fig4(Options{Scale: 0.2, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	meanSame, maxSame := meanMax(res.SameSocketDeltaUS)
	if maxSame != 0 {
		t.Errorf("same-socket grant deltas nonzero: mean %.2f max %.2f", meanSame, maxSame)
	}
	meanCross, _ := meanMax(res.CrossSocketDeltaUS)
	if meanCross < 20 {
		t.Errorf("cross-socket grants should diverge (independent grids), mean %.2f us", meanCross)
	}
	if !strings.Contains(res.Render(), "same socket") {
		t.Error("render missing rows")
	}
}

func TestFig5C3Shapes(t *testing.T) {
	res, err := CStateLatencies(cstate.C3, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Local C3 nearly flat with the +1.5us step above 1.5 GHz.
	fx, fy := res.Series(uarch.HaswellEP, cstate.Local)
	if len(fx) != 14 {
		t.Fatalf("expected 14 p-state points, got %d", len(fx))
	}
	lo, hi := fy[0], fy[len(fy)-1]
	if hi-lo < 1.0 || hi-lo > 2.5 {
		t.Errorf("local C3 step across range = %.2f us, want ~1.5", hi-lo)
	}
	// Remote idle (package C3) adds 2-4 us over remote active.
	_, ra := res.Series(uarch.HaswellEP, cstate.RemoteActive)
	_, ri := res.Series(uarch.HaswellEP, cstate.RemoteIdle)
	for i := range ra {
		d := ri[i] - ra[i]
		if d < 1.5 || d > 4.5 {
			t.Errorf("package C3 penalty at point %d = %.2f us, want 2-4", i, d)
		}
	}
	// Everything far below the 33 us ACPI table value.
	for _, p := range res.Points {
		if p.Arch == uarch.HaswellEP && p.LatencyUS >= 33 {
			t.Errorf("C3 wake %v/%.1fGHz = %.1f us, ACPI table is 33", p.Scenario, p.FreqGHz, p.LatencyUS)
		}
	}
}

func TestFig6C6Shapes(t *testing.T) {
	res, err := CStateLatencies(cstate.C6, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Strong frequency dependence locally.
	fx, fy := res.Series(uarch.HaswellEP, cstate.Local)
	if fy[0] <= fy[len(fx)-1] {
		t.Errorf("local C6 at 1.2 GHz (%.1f) must exceed 2.5 GHz (%.1f)", fy[0], fy[len(fy)-1])
	}
	// Haswell improved over Sandy Bridge for deep c-states.
	_, snb := res.Series(uarch.SandyBridgeEP, cstate.Local)
	for i := range fy {
		if i < len(snb) && fy[i] >= snb[i] {
			t.Errorf("HSW C6 local point %d (%.1f) not better than SNB (%.1f)", i, fy[i], snb[i])
		}
	}
	// Below the 133 us ACPI figure everywhere.
	for _, p := range res.Points {
		if p.LatencyUS >= 133 {
			t.Errorf("C6 wake = %.1f us >= ACPI 133", p.LatencyUS)
		}
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render mislabeled")
	}
}

// RelAtMin returns the relative bandwidth at the lowest p-state.
func (r *Fig7Result) RelAtMin(gen uarch.Generation, level Level) float64 {
	_, rel := r.Series(gen, level)
	if len(rel) == 0 {
		return 0
	}
	return rel[0]
}

func TestFig7CrossGeneration(t *testing.T) {
	res, err := Fig7(Options{Scale: 0.1, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	// Haswell: DRAM flat, L3 tracks core clock.
	if rel := res.RelAtMin(uarch.HaswellEP, LevelDRAM); rel < 0.98 {
		t.Errorf("HSW DRAM rel@1.2GHz = %.3f, want ~1.0 (independent of core clock)", rel)
	}
	if rel := res.RelAtMin(uarch.HaswellEP, LevelL3); rel < 0.40 || rel > 0.75 {
		t.Errorf("HSW L3 rel@1.2GHz = %.3f, want strong frequency dependence", rel)
	}
	// Sandy Bridge: both collapse (coupled uncore); L3 exactly linear.
	if rel := res.RelAtMin(uarch.SandyBridgeEP, LevelDRAM); rel > 0.62 {
		t.Errorf("SNB DRAM rel@1.2GHz = %.3f, want strong collapse", rel)
	}
	if rel := res.RelAtMin(uarch.SandyBridgeEP, LevelL3); math.Abs(rel-1.2/2.6) > 0.05 {
		t.Errorf("SNB L3 rel@1.2GHz = %.3f, want ~linear %.3f", rel, 1.2/2.6)
	}
	// Westmere: fixed uncore, DRAM flat — the behaviour Haswell
	// returns to.
	if rel := res.RelAtMin(uarch.WestmereEP, LevelDRAM); rel < 0.95 {
		t.Errorf("WSM DRAM rel@min = %.3f, want ~flat", rel)
	}
	// Westmere L3 is less influenced by core frequency than Haswell.
	wsmL3 := res.RelAtMin(uarch.WestmereEP, LevelL3)
	hswL3 := res.RelAtMin(uarch.HaswellEP, LevelL3)
	if wsmL3 <= hswL3 {
		t.Errorf("WSM L3 rel (%.2f) should exceed HSW (%.2f): dedicated uncore clocks are less core-bound", wsmL3, hswL3)
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Error("render mislabeled")
	}
}

func TestFig8Surface(t *testing.T) {
	res, err := Fig8(Options{Scale: 0.05, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	// DRAM saturates at 8 cores (2 threads each).
	bw8 := res.At(LevelDRAM, 8, 2, 2.5)
	bw12 := res.At(LevelDRAM, 12, 2, 2.5)
	if bw8 < 0.92*bw12 {
		t.Errorf("DRAM bw at 8 cores (%.1f) should be near 12-core saturation (%.1f)", bw8, bw12)
	}
	// Independent of core frequency from 10 cores on.
	lo := res.At(LevelDRAM, 10, 2, 1.2)
	hi := res.At(LevelDRAM, 10, 2, 2.5)
	if lo < 0.98*hi {
		t.Errorf("10-core DRAM bw depends on frequency: %.1f vs %.1f", lo, hi)
	}
	// HT helps only at low concurrency.
	if res.At(LevelDRAM, 2, 2, 2.5) <= res.At(LevelDRAM, 2, 1, 2.5)*1.05 {
		t.Error("HT should help 2-core DRAM bandwidth")
	}
	if res.At(LevelDRAM, 12, 2, 2.5) > res.At(LevelDRAM, 12, 1, 2.5)*1.02 {
		t.Error("HT should not help saturated DRAM bandwidth")
	}
	// L3 bandwidth scales with both cores and frequency.
	l3c := res.At(LevelL3, 8, 2, 2.5) / res.At(LevelL3, 1, 2, 2.5)
	if l3c < 7 || l3c > 9 {
		t.Errorf("L3 core scaling 1->8 = %.1fx, want ~8x", l3c)
	}
	l3f := res.At(LevelL3, 4, 2, 2.5) / res.At(LevelL3, 4, 2, 1.2)
	if l3f < 1.3 || l3f > 2.2 {
		t.Errorf("L3 frequency scaling 1.2->2.5 = %.2fx, want strong but sublinear", l3f)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Error("render mislabeled")
	}
}

func TestTable4RAPLObservation(t *testing.T) {
	// Section V-B: "The RAPL package consumption (not listed) indicates
	// that both processors are limited by their TDP for all frequency
	// settings at or above 2.2 GHz" and "for 2.1 GHz and slower, both
	// processors use less than 120 W".
	rows, _, err := Table4(Options{Scale: 0.08, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for s := 0; s < 2; s++ {
			if r.Setting >= 2200 || r.Setting > 2500 {
				if r.PkgW[s] < 110 {
					t.Errorf("setting %v socket %d: %.1f W, want TDP-limited", r.Setting, s, r.PkgW[s])
				}
			}
			if r.Setting == 2100 && r.PkgW[s] >= 120 {
				t.Errorf("setting 2.1 socket %d: %.1f W, want < 120", s, r.PkgW[s])
			}
		}
	}
}

// correlation returns the Pearson correlation coefficient of (xs, ys),
// or NaN for degenerate inputs.
func correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{2, 4, 6, 8, 10}
	if c := correlation(xs, up); math.Abs(c-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", c)
	}
	down := []float64{10, 8, 6, 4, 2}
	if c := correlation(xs, down); math.Abs(c+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", c)
	}
	if !math.IsNaN(correlation(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("flat series should give NaN")
	}
	if !math.IsNaN(correlation(xs, xs[:2])) {
		t.Error("mismatched lengths should give NaN")
	}
	noisy := []float64{2.1, 3.8, 6.3, 7.9, 9.6}
	if c := correlation(xs, noisy); c < 0.99 {
		t.Errorf("near-linear correlation = %v", c)
	}
}

func TestFig7CorrelationClaims(t *testing.T) {
	// "the L3 bandwidth of Haswell-EP strongly correlates with the core
	// frequency" — quantified with Pearson correlation; DRAM bandwidth
	// at max concurrency shows no such correlation.
	res, err := Fig7(Options{Scale: 0.05, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	fx, l3 := res.Series(uarch.HaswellEP, LevelL3)
	if c := correlation(fx, l3); c < 0.97 {
		t.Errorf("HSW L3-vs-frequency correlation = %.3f, want strong", c)
	}
	_, dram := res.Series(uarch.HaswellEP, LevelDRAM)
	spreadLo, spreadHi := stats.MinMax(dram)
	if spreadHi-spreadLo > 0.02 {
		t.Errorf("HSW DRAM relative spread = %.3f, want flat", spreadHi-spreadLo)
	}
}
