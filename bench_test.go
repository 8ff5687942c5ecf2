// Benchmark harness: one testing.B target per table and figure of the
// paper, plus one per ablation of DESIGN.md §5. Each bench runs the
// corresponding experiment end to end on the simulated platform and
// reports the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (a reduced-effort version of) the paper's entire
// evaluation. Use cmd/experiments for full-fidelity runs and rendered
// tables/figures. ns/op here is simulation cost, not hardware time.
package hswsim

import (
	"testing"

	"hswsim/internal/cstate"
	"hswsim/internal/exp"
	"hswsim/internal/uarch"
)

// benchOpts keeps benchmark effort bounded; raise Scale for fidelity.
func benchOpts() exp.Options { return exp.Options{Scale: 0.05, Seed: 0x5eed} }

// relAtMin is a Fig 7 series' relative bandwidth at the lowest p-state.
func relAtMin(r *exp.Fig7Result, gen uarch.Generation, level exp.Level) float64 {
	_, rel := r.Series(gen, level)
	return rel[0]
}

// variantMetric fetches an ablation variant's metric by label.
func variantMetric(r *exp.AblationResult, label, metric string) float64 {
	for _, v := range r.Variants {
		if v.Label == label {
			return v.Metrics[metric]
		}
	}
	return 0
}

// numaGBs fetches a NUMA study point's bandwidth by configuration.
func numaGBs(pts []exp.NUMAPoint, cores int, remote float64) float64 {
	for _, p := range pts {
		if p.Cores == cores && p.RemoteFrac == remote {
			return p.GBs
		}
	}
	return 0
}

func BenchmarkTable1Microarchitecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Table1()
		if len(t.Rows) < 10 {
			b.Fatal("table I incomplete")
		}
	}
}

func BenchmarkTable2TestSystem(b *testing.B) {
	var idle float64
	for i := 0; i < b.N; i++ {
		_, w, err := exp.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		idle = w
	}
	b.ReportMetric(idle, "idle_ac_w")
}

func BenchmarkTable3UncoreFrequencies(b *testing.B) {
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = exp.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ActiveGHz, "uncore_turbo_ghz")
	b.ReportMetric(rows[1].ActiveGHz, "uncore_2.5_ghz")
}

func BenchmarkTable4FirestarterTDP(b *testing.B) {
	var rows []exp.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = exp.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CoreGHz[0], "turbo_core_ghz")
	b.ReportMetric(rows[0].UncoreGHz[0], "turbo_uncore_ghz")
	b.ReportMetric(rows[0].GIPSThread[0], "turbo_gips")
}

func BenchmarkTable5MaxPower(b *testing.B) {
	var cells []exp.Table5Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, _, err = exp.Table5(exp.Options{Scale: 0.03, Seed: 0x5eed})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Workload == "FIRESTARTER" && c.Setting > 2500 && c.EPB == EPBBalanced {
			b.ReportMetric(c.PowerW, "firestarter_w")
			b.ReportMetric(c.FreqGHz, "firestarter_ghz")
		}
	}
}

func BenchmarkFig2RAPLValidation(b *testing.B) {
	var hsw *exp.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		hsw, err = exp.Fig2(uarch.HaswellEP, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hsw.R2, "hsw_r2")
	b.ReportMetric(hsw.MaxResidual, "hsw_max_residual_w")
}

func BenchmarkFig2SandyBridgeBias(b *testing.B) {
	var snb *exp.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		snb, err = exp.Fig2(uarch.SandyBridgeEP, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(snb.BiasSpread(), "snb_bias_spread_w")
}

func BenchmarkFig3TransitionLatencies(b *testing.B) {
	var r *exp.Fig3Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	rand := r.Histograms[exp.RandomDelay]
	b.ReportMetric(rand.Min(), "min_us")
	b.ReportMetric(rand.Max(), "max_us")
	b.ReportMetric(r.Histograms[exp.InstantAfterChange].Median(), "instant_median_us")
}

func BenchmarkFig4GridSync(b *testing.B) {
	var r *exp.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	same, _ := meanOf(r.SameSocketDeltaUS)
	cross, _ := meanOf(r.CrossSocketDeltaUS)
	b.ReportMetric(same, "same_socket_delta_us")
	b.ReportMetric(cross, "cross_socket_delta_us")
}

func meanOf(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), len(xs)
}

func BenchmarkFig5C3Wake(b *testing.B) {
	benchWake(b, cstate.C3)
}

func BenchmarkFig6C6Wake(b *testing.B) {
	benchWake(b, cstate.C6)
}

func benchWake(b *testing.B, st cstate.State) {
	var r *exp.CStateResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.CStateLatencies(st, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	_, local := r.Series(uarch.HaswellEP, cstate.Local)
	_, pkg := r.Series(uarch.HaswellEP, cstate.RemoteIdle)
	b.ReportMetric(local[0], "local_1.2ghz_us")
	b.ReportMetric(local[len(local)-1], "local_2.5ghz_us")
	b.ReportMetric(pkg[0], "pkg_1.2ghz_us")
}

func BenchmarkFig7FrequencyScaling(b *testing.B) {
	var r *exp.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(relAtMin(r, uarch.HaswellEP, exp.LevelDRAM), "hsw_dram_rel")
	b.ReportMetric(relAtMin(r, uarch.HaswellEP, exp.LevelL3), "hsw_l3_rel")
	b.ReportMetric(relAtMin(r, uarch.SandyBridgeEP, exp.LevelDRAM), "snb_dram_rel")
	b.ReportMetric(relAtMin(r, uarch.WestmereEP, exp.LevelDRAM), "wsm_dram_rel")
}

func BenchmarkFig8ConcurrencySurface(b *testing.B) {
	var r *exp.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig8(exp.Options{Scale: 0.02, Seed: 0x5eed})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.At(exp.LevelDRAM, 8, 2, 2.5), "dram_8core_gbs")
	b.ReportMetric(r.At(exp.LevelDRAM, 12, 2, 2.5), "dram_12core_gbs")
	b.ReportMetric(r.At(exp.LevelL3, 12, 2, 2.5), "l3_12core_gbs")
}

func BenchmarkAblationPstateGrid(b *testing.B) {
	var r *exp.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.AblationPstateGrid(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(variantMetric(r, "grid 500us (Haswell-EP)", "mean_us"), "grid_mean_us")
	b.ReportMetric(variantMetric(r, "immediate (pre-Haswell)", "mean_us"), "immediate_mean_us")
}

func BenchmarkAblationUFS(b *testing.B) {
	var r *exp.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.AblationUFS(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(variantMetric(r, "UFS (Haswell-EP)", "relative"), "ufs_rel")
	b.ReportMetric(variantMetric(r, "coupled (Sandy Bridge-like)", "relative"), "coupled_rel")
}

func BenchmarkAblationRAPLMode(b *testing.B) {
	var r *exp.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.AblationRAPLMode(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(variantMetric(r, "measured (Haswell)", "bias_spread_w"), "measured_bias_w")
	b.ReportMetric(variantMetric(r, "modeled (pre-Haswell approach)", "bias_spread_w"), "modeled_bias_w")
}

func BenchmarkAblationEET(b *testing.B) {
	var r *exp.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.AblationEET(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(variantMetric(r, "EET on, slow phases (50 ms)", "joules_per_ginst"), "eet_on_j_per_ginst")
	b.ReportMetric(variantMetric(r, "EET off, slow phases (50 ms)", "joules_per_ginst"), "eet_off_j_per_ginst")
}

func BenchmarkAblationBudget(b *testing.B) {
	var r *exp.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.AblationBudget(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(variantMetric(r, "trading on (Haswell-EP)", "gips"), "trading_on_gips")
	b.ReportMetric(variantMetric(r, "trading off", "gips"), "trading_off_gips")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: virtual
// seconds of a fully loaded dual-socket node per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, Firestarter(), 2); err != nil {
			b.Fatal(err)
		}
	}
	sys.RequestTurbo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(Seconds(0.1))
	}
}

func BenchmarkExtensionPowerCaps(b *testing.B) {
	var pts []exp.PowerCapPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = exp.PowerCapStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].CoreGHz[0], "cap120_core_ghz")
	b.ReportMetric(pts[len(pts)-1].CoreGHz[0], "cap55_core_ghz")
}

func BenchmarkExtensionIdleTables(b *testing.B) {
	var vars []exp.IdleTableVariant
	for i := 0; i < b.N; i++ {
		var err error
		vars, _, err = exp.IdleTableStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vars[0].PkgW, "acpi_tables_w")
	b.ReportMetric(vars[1].PkgW, "measured_tables_w")
}

func BenchmarkExtensionDVFSDynamic(b *testing.B) {
	var vars []exp.DVFSDynamicVariant
	for i := 0; i < b.N; i++ {
		var err error
		vars, _, err = exp.DVFSDynamicStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vars[0].JoulePerGig, "grid_j_per_ginst")
	b.ReportMetric(vars[1].JoulePerGig, "immediate_j_per_ginst")
}

func BenchmarkExtensionNUMA(b *testing.B) {
	var pts []exp.NUMAPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, _, err = exp.NUMAStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(numaGBs(pts, 12, 0), "local_gbs")
	b.ReportMetric(numaGBs(pts, 12, 1), "remote_gbs")
}

func BenchmarkExtensionPCPS(b *testing.B) {
	var vars []exp.PCPSVariant
	for i := 0; i < b.N; i++ {
		var err error
		vars, _, err = exp.PCPSStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(vars[0].PkgW, "pcps_w")
	b.ReportMetric(vars[1].PkgW, "shared_domain_w")
}
