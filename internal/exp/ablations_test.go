package exp

import (
	"strings"
	"testing"
)

// Metric fetches a variant's metric by label.
func (r *AblationResult) Metric(label, metric string) float64 {
	for _, v := range r.Variants {
		if v.Label == label {
			return v.Metrics[metric]
		}
	}
	return 0
}

func TestAblationPstateGrid(t *testing.T) {
	res, err := AblationPstateGrid(Quick())
	if err != nil {
		t.Fatal(err)
	}
	gridMean := res.Metric("grid 500us (Haswell-EP)", "mean_us")
	immMean := res.Metric("immediate (pre-Haswell)", "mean_us")
	// The grid costs ~250 us on average; immediate costs ~10 us — the
	// paper's "significantly increased transition latencies".
	if gridMean < 150 || gridMean > 350 {
		t.Errorf("grid mean latency = %.0f us, want ~270", gridMean)
	}
	if immMean > 15 {
		t.Errorf("immediate mean latency = %.0f us, want ~10", immMean)
	}
	if gridMean < 10*immMean {
		t.Errorf("grid (%.0f) should dwarf immediate (%.0f)", gridMean, immMean)
	}
	if res.Metric("grid 500us (Haswell-EP)", "max_us") < 400 {
		t.Errorf("grid max should approach ~524 us")
	}
	if !strings.Contains(res.Render(), "variant") {
		t.Error("render broken")
	}
}

func TestAblationUFS(t *testing.T) {
	res, err := AblationUFS(Quick())
	if err != nil {
		t.Fatal(err)
	}
	ufs := res.Metric("UFS (Haswell-EP)", "relative")
	coupled := res.Metric("coupled (Sandy Bridge-like)", "relative")
	fixed := res.Metric("fixed-max (Westmere-like)", "relative")
	if ufs < 0.98 || fixed < 0.98 {
		t.Errorf("UFS (%.2f) and fixed (%.2f) DRAM bw should be clock-independent", ufs, fixed)
	}
	if coupled > 0.62 {
		t.Errorf("coupled uncore relative bw = %.2f, want a collapse (<0.62)", coupled)
	}
}

func TestAblationRAPLMode(t *testing.T) {
	res, err := AblationRAPLMode(Options{Scale: 0.1, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	measured := res.Metric("measured (Haswell)", "bias_spread_w")
	modeled := res.Metric("modeled (pre-Haswell approach)", "bias_spread_w")
	if modeled < 3*measured {
		t.Errorf("modeled bias spread %.1f should dwarf measured %.1f", modeled, measured)
	}
	if r2 := res.Metric("measured (Haswell)", "r2"); r2 < 0.999 {
		t.Errorf("measured-mode R2 = %.5f", r2)
	}
}

func TestAblationEET(t *testing.T) {
	res, err := AblationEET(Options{Scale: 0.3, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	// Slow phases: EET saves energy per instruction.
	onSlow := res.Metric("EET on, slow phases (50 ms)", "joules_per_ginst")
	offSlow := res.Metric("EET off, slow phases (50 ms)", "joules_per_ginst")
	if onSlow >= offSlow {
		t.Errorf("EET should improve energy/instruction on slow phases: %.2f vs %.2f", onSlow, offSlow)
	}
	// Unfavorable 1.5 ms phases: EET's stale decisions cost performance
	// relative to its own slow-phase efficiency gain.
	onFast := res.Metric("EET on, 1.5 ms phases (unfavorable)", "gips")
	offFast := res.Metric("EET off, 1.5 ms phases", "gips")
	if onFast > offFast {
		t.Errorf("EET should not beat raw turbo at unfavorable phase rates: %.2f vs %.2f", onFast, offFast)
	}
}

func TestAblationBudget(t *testing.T) {
	res, err := AblationBudget(Options{Scale: 0.15, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	// Without trading, the uncore always takes its full stall target and
	// the cores pay the entire TDP bill; with trading the PCU balances
	// both, keeping the cores at their setting and netting higher IPS.
	onCore := res.Metric("trading on (Haswell-EP)", "core_ghz")
	offCore := res.Metric("trading off", "core_ghz")
	if onCore <= offCore {
		t.Errorf("budget trading should preserve core frequency: %.2f vs %.2f", onCore, offCore)
	}
	onIPS := res.Metric("trading on (Haswell-EP)", "gips")
	offIPS := res.Metric("trading off", "gips")
	if onIPS <= offIPS {
		t.Errorf("budget trading should net higher IPS: %.3f vs %.3f", onIPS, offIPS)
	}
}
