package exp

import (
	"strings"
	"testing"

	"hswsim/internal/cstate"
)

// NUMAAt fetches a point by configuration.
func NUMAAt(points []NUMAPoint, cores int, remote float64) NUMAPoint {
	for _, p := range points {
		if p.Cores == cores && p.RemoteFrac == remote {
			return p
		}
	}
	return NUMAPoint{}
}

func TestPowerCapStudy(t *testing.T) {
	pts, tab, err := PowerCapStudy(Options{Scale: 0.1, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// Frequency and throughput fall monotonically with the cap.
	for i := 1; i < len(pts); i++ {
		if pts[i].CoreGHz[0] > pts[i-1].CoreGHz[0]+0.01 {
			t.Errorf("cap %.0f: core %.2f should not exceed cap %.0f's %.2f",
				pts[i].CapW, pts[i].CoreGHz[0], pts[i-1].CapW, pts[i-1].CoreGHz[0])
		}
		if pts[i].GIPSTotal > pts[i-1].GIPSTotal*1.01 {
			t.Errorf("GIPS not monotone at cap %.0f", pts[i].CapW)
		}
	}
	// Each socket respects its programmed limit (small controller
	// overshoot allowed).
	for _, p := range pts {
		for s := 0; s < 2; s++ {
			if p.PkgW[s] > p.CapW*1.12 {
				t.Errorf("cap %.0f: socket %d draws %.1f W", p.CapW, s, p.PkgW[s])
			}
		}
	}
	// Deep caps push the clock below the AVX base guarantee.
	last := pts[len(pts)-1]
	if last.CoreGHz[0] >= 2.1 {
		t.Errorf("55 W cap: core %.2f GHz, want below the 2.1 AVX base", last.CoreGHz[0])
	}
	// The less efficient socket 0 must not outrun socket 1 under a cap.
	mid := pts[2]
	if mid.CoreGHz[0] > mid.CoreGHz[1]+0.02 {
		t.Errorf("socket 0 (%.2f) outran socket 1 (%.2f) under an 85 W cap", mid.CoreGHz[0], mid.CoreGHz[1])
	}
	if !strings.Contains(tab.String(), "Cap") {
		t.Error("render broken")
	}
}

func TestIdleTableStudy(t *testing.T) {
	vars, tab, err := IdleTableStudy(Options{Scale: 0.3, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 {
		t.Fatalf("variants = %d", len(vars))
	}
	acpi, measured := vars[0], vars[1]
	// The ACPI governor cannot justify C6 for an 80 us idle window
	// (133 us advertised exit); the measured governor can (~15 us).
	if acpi.StatePick == cstate.C6 {
		t.Errorf("ACPI governor picked %v for 80 us idle; tables should forbid it", acpi.StatePick)
	}
	if measured.StatePick != cstate.C6 {
		t.Errorf("measured governor picked %v, want C6", measured.StatePick)
	}
	// Deeper idling must save package power.
	if measured.PkgW >= acpi.PkgW {
		t.Errorf("measured tables should save power: %.1f vs %.1f W", measured.PkgW, acpi.PkgW)
	}
	if !strings.Contains(tab.String(), "ACPI") {
		t.Error("render broken")
	}
}

func TestDVFSDynamicStudy(t *testing.T) {
	vars, tab, err := DVFSDynamicStudy(Options{Scale: 0.25, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	grid, imm := vars[0], vars[1]
	if grid.Transitions == 0 || imm.Transitions == 0 {
		t.Fatal("governor idle — no transitions recorded")
	}
	// The paper's conclusion: the 500 us grid reduces DVFS
	// effectiveness in dynamic scenarios — immediate transitions get
	// equal-or-better energy per instruction.
	if imm.JoulePerGig > grid.JoulePerGig*1.005 {
		t.Errorf("immediate transitions should not be less efficient: %.3f vs %.3f J/Ginst",
			imm.JoulePerGig, grid.JoulePerGig)
	}
	if !strings.Contains(tab.String(), "grid") {
		t.Error("render broken")
	}
}

func TestNUMAStudy(t *testing.T) {
	pts, tab, err := NUMAStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// Low concurrency: remote latency directly costs bandwidth.
	if l, r := NUMAAt(pts, 2, 0).GBs, NUMAAt(pts, 2, 1).GBs; r >= l*0.85 {
		t.Errorf("2-core remote %.1f should be well below local %.1f", r, l)
	}
	// Saturation: all-remote capped by QPI, far below the local limit.
	local12 := NUMAAt(pts, 12, 0).GBs
	remote12 := NUMAAt(pts, 12, 1).GBs
	if remote12 >= local12*0.6 {
		t.Errorf("12-core remote %.1f should collapse vs local %.1f", remote12, local12)
	}
	if remote12 > 31 {
		t.Errorf("12-core remote %.1f exceeds the QPI capacity", remote12)
	}
	if !strings.Contains(tab.String(), "Remote") {
		t.Error("render broken")
	}
}

func TestPCPSStudy(t *testing.T) {
	vars, tab, err := PCPSStudy(Options{Scale: 0.25, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	pcps, shared := vars[0], vars[1]
	// Both must deliver the same stream bandwidth (saturation-bound).
	if pcps.StreamGBs < shared.StreamGBs*0.95 {
		t.Errorf("PCPS lost stream bandwidth: %.1f vs %.1f", pcps.StreamGBs, shared.StreamGBs)
	}
	// PCPS keeps compute throughput while the shared domain is dragged
	// up/down by the governor fighting over one clock.
	if pcps.ComputeGIPS < shared.ComputeGIPS*0.95 {
		t.Errorf("PCPS compute %.1f should be at least the shared domain's %.1f",
			pcps.ComputeGIPS, shared.ComputeGIPS)
	}
	// And burns less (or at worst equal) power for it: the streaming
	// cores idle down independently.
	pcpsEff := pcps.ComputeGIPS / pcps.PkgW
	sharedEff := shared.ComputeGIPS / shared.PkgW
	if pcpsEff < sharedEff {
		t.Errorf("PCPS efficiency %.3f GIPS/W below shared-domain %.3f", pcpsEff, sharedEff)
	}
	if !strings.Contains(tab.String(), "per-core") {
		t.Error("render broken")
	}
}

func TestKernelCatalogStudy(t *testing.T) {
	chars, tab, err := KernelCatalogStudy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]KernelCharacter{}
	for _, c := range chars {
		byName[c.Name] = c
	}
	if len(byName) < 14 {
		t.Fatalf("catalog has %d kernels", len(byName))
	}
	// Latency-bound sparse solver stalls hard and moves little data.
	cg := byName["cg (sparse solver)"]
	if cg.StallFrac < 0.3 {
		t.Errorf("CG stall fraction = %.2f, want latency-bound", cg.StallFrac)
	}
	// The stencil saturates DRAM; the pointer chase barely touches it.
	jac := byName["jacobi (stencil)"]
	chase := byName["pointer chase"]
	if jac.MemGBs < 50 {
		t.Errorf("jacobi DRAM = %.1f GB/s, want saturated", jac.MemGBs)
	}
	if chase.MemGBs > jac.MemGBs/3 {
		t.Errorf("pointer chase %.1f vs jacobi %.1f GB/s: chase must be far slower", chase.MemGBs, jac.MemGBs)
	}
	// FIRESTARTER's *package* draw tops the catalog (DRAM-heavy kernels
	// may add more DRAM watts, but no core workload out-burns the
	// power virus inside the package).
	fs := byName["FIRESTARTER"]
	for _, c := range chars {
		if c.CPUOnlyW > fs.CPUOnlyW+1 {
			t.Errorf("%s package %.1f W, above the power virus %.1f", c.Name, c.CPUOnlyW, fs.CPUOnlyW)
		}
	}
	// Compute kernels run unstalled at full base clock.
	comp := byName["compute"]
	if comp.StallFrac > 0.01 || comp.CoreGHz < 2.45 {
		t.Errorf("compute: %.2f GHz stall %.2f", comp.CoreGHz, comp.StallFrac)
	}
	if !strings.Contains(tab.String(), "jacobi") {
		t.Error("render broken")
	}
}
