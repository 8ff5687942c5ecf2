package hswsim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPublicQuickstart exercises the README quickstart path end to end
// through the public API only.
func TestPublicQuickstart(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.CPUs() != 24 {
		t.Fatalf("CPUs = %d, want 24", sys.CPUs())
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.RequestTurbo()
	sys.Run(Seconds(1.5))
	iv := sys.MeasureCore(0, Seconds(1))
	if f := iv.FreqGHz(); f < 2.1 || f > 2.45 {
		t.Errorf("sustained FIRESTARTER clock = %.2f GHz, want TDP-limited band", f)
	}
	if g := iv.GIPS() / 2; g < 3.2 || g > 3.9 {
		t.Errorf("GIPS/thread = %.2f, want ~3.56", g)
	}
}

func TestPublicConfigs(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), SandyBridgeConfig(), WestmereConfig()} {
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Spec.Model, err)
		}
		sys.Run(Seconds(0.1))
		if sys.Now() != Seconds(0.1) {
			t.Fatalf("clock did not advance")
		}
	}
}

func TestPublicKernels(t *testing.T) {
	ks := []Kernel{
		BusyWait(), Compute(), Sqrt(), Memory(), DGEMM(),
		Sinus(Seconds(1)), Firestarter(), Linpack(), Mprime(),
		L3Stream(), MemStream(),
		Stream(17<<20, 256<<10, 30<<20),
		CustomKernel("mine", Profile{IPC1: 1, IPC2: 1.5, Activity: 0.5}),
		PhasedKernel("ph", Profile{IPC1: 1, IPC2: 1.2, Activity: 0.5},
			Profile{IPC1: 0.5, IPC2: 0.6, Activity: 0.2}, Seconds(0.001)),
	}
	for _, k := range ks {
		if KernelName(k) == "" {
			t.Errorf("kernel with empty name: %#v", k)
		}
		if err := k.ProfileAt(0).Validate(); err != nil {
			t.Errorf("%s: %v", KernelName(k), err)
		}
	}
	if KernelName(nil) != "idle" {
		t.Error("nil kernel must be idle")
	}
}

func TestPublicEPBAndSleep(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEPB(EPBPerformance)
	if sys.EPB() != EPBPerformance {
		t.Error("EPB not applied")
	}
	if err := sys.AssignKernel(0, BusyWait(), 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.SleepCore(1, C6); err != nil {
		t.Fatal(err)
	}
	res, err := sys.WakeCore(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Error("zero wake latency")
	}
}

func TestPublicGovernor(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AssignKernel(0, Compute(), 2); err != nil {
		t.Fatal(err)
	}
	sys.SetPState(0, 1200)
	r := AttachGovernor(sys, OnDemandGovernor(), []int{0}, Seconds(0.01))
	sys.Run(Seconds(0.3))
	r.Stop()
	if sys.CoreFreqMHz(0) <= 1200 {
		t.Errorf("ondemand governor did not raise the clock: %v", sys.CoreFreqMHz(0))
	}
}

func TestPublicSpecs(t *testing.T) {
	if E52680v3Spec().Cores != 12 || E52670SNBSpec().Cores != 8 || X5670WSMSpec().Cores != 6 {
		t.Error("spec accessors broken")
	}
	if HaswellNodeConfig().FixedPlatformW <= 0 {
		t.Error("node config broken")
	}
}

// Property: the platform is deterministic — any (seed, brief load)
// combination reproduces identical measurements across two fresh runs.
func TestPublicDeterminismProperty(t *testing.T) {
	f := func(seed uint16, kernelIdx uint8) bool {
		ks := []Kernel{BusyWait(), Compute(), DGEMM(), MemStream(), Firestarter()}
		k := ks[int(kernelIdx)%len(ks)]
		run := func() (float64, float64) {
			cfg := DefaultConfig()
			cfg.Seed = uint64(seed) + 1
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for cpu := 0; cpu < 6; cpu++ {
				if err := sys.AssignKernel(cpu, k, 2); err != nil {
					t.Fatal(err)
				}
			}
			sys.RequestTurbo()
			sys.Run(Seconds(0.1))
			iv := sys.MeasureCore(0, Seconds(0.1))
			return iv.GIPS(), sys.ACPowerW()
		}
		g1, p1 := run()
		g2, p2 := run()
		return g1 == g2 && p1 == p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: package power never exceeds the TDP by more than the
// controller's single-grid-step overshoot, for any full-load workload.
func TestPublicTDPNeverGrosslyExceeded(t *testing.T) {
	for _, k := range []Kernel{Firestarter(), Linpack(), DGEMM(), Mprime()} {
		sys, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for cpu := 0; cpu < sys.CPUs(); cpu++ {
			if err := sys.AssignKernel(cpu, k, 2); err != nil {
				t.Fatal(err)
			}
		}
		sys.RequestTurbo()
		sys.Run(Seconds(1)) // converge
		worst := 0.0
		for i := 0; i < 40; i++ {
			sys.Run(Seconds(0.025))
			if p := sys.Socket(0).LastPkgPowerW(); p > worst {
				worst = p
			}
		}
		tdp := sys.Spec().Power.TDP
		if worst > tdp*1.1 {
			t.Errorf("%s: sustained package power %.1f W exceeds TDP %.0f by >10%%", KernelName(k), worst, tdp)
		}
	}
}

func TestSecondsAndDuration(t *testing.T) {
	if Seconds(1.5) != Time(1.5e9) {
		t.Error("Seconds conversion wrong")
	}
	if math.Abs(Seconds(0.001).Seconds()-0.001) > 1e-12 {
		t.Error("round trip wrong")
	}
}

func TestPublicTraceAndResidency(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.EnableTrace(1024)
	if err := sys.AssignKernel(0, DGEMM(), 2); err != nil {
		t.Fatal(err)
	}
	sys.RequestTurbo()
	sys.Run(Seconds(0.1))
	if tr.SpanCount() == 0 {
		t.Fatal("trace recorded no spans")
	}
	r := sys.CoreResidency(0)
	if r.C0Frac() < 0.9 {
		t.Errorf("busy core C0 fraction = %.2f", r.C0Frac())
	}
	if r.DominantPState() == 0 {
		t.Error("no dominant p-state")
	}
}

func TestPublicPowerLimit(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.CPUs(); cpu++ {
		if err := sys.AssignKernel(cpu, Firestarter(), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.RequestTurbo()
	for s := 0; s < sys.Sockets(); s++ {
		if err := sys.SetPowerLimitW(s, 80); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(Seconds(1.5))
	iv := sys.MeasureCore(0, Seconds(0.5))
	if f := iv.FreqGHz(); f > 2.0 {
		t.Errorf("80 W cap left the clock at %.2f GHz", f)
	}
	if p := sys.Socket(0).LastPkgPowerW(); p > 90 {
		t.Errorf("80 W cap exceeded: %.1f W", p)
	}
}

func TestPublicNUMAStream(t *testing.T) {
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < 12; cpu++ {
		if err := sys.AssignKernel(cpu, NUMAStream(1.0), 2); err != nil {
			t.Fatal(err)
		}
	}
	sys.SetPStateAll(2500)
	sys.Run(Seconds(0.1))
	iv := sys.MeasureCore(0, Seconds(0.5))
	bw := iv.GIPS() * 8 * 12
	if bw > 31 {
		t.Errorf("all-remote aggregate %.1f GB/s exceeds the QPI model", bw)
	}
}
