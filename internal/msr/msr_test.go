package msr

import (
	"math"
	"testing"
)

func TestPowerUnitRoundTrip(t *testing.T) {
	// Typical Haswell-EP: power 1/8 W, energy ~61 uJ (2^-14 J), time 1/1024 s.
	v := PowerUnitValue(3, 14, 10)
	unit := EnergyUnitJoules(v)
	want := 1.0 / (1 << 14)
	if math.Abs(unit-want) > 1e-12 {
		t.Fatalf("energy unit = %v, want %v", unit, want)
	}
}

func TestDRAMUnitIsFixed153uJ(t *testing.T) {
	// Section IV: "ENERGY UNIT for DRAM domain is 15.3 uJ" — NOT the
	// value from MSR_RAPL_POWER_UNIT.
	if DRAMEnergyUnitJoulesHaswellEP != 15.3e-6 {
		t.Fatalf("DRAM energy unit = %v, want 15.3e-6", DRAMEnergyUnitJoulesHaswellEP)
	}
	pkgUnit := EnergyUnitJoules(PowerUnitValue(3, 14, 10))
	ratio := pkgUnit / DRAMEnergyUnitJoulesHaswellEP
	// Misusing the package unit (DRAM mode 0 semantics) inflates DRAM
	// readings by roughly 4x — "unreasonably high values".
	if ratio < 3 || ratio > 5 {
		t.Fatalf("unit confusion ratio = %v, want ~4", ratio)
	}
}

func TestNames(t *testing.T) {
	if Name(MSR_PKG_ENERGY_STATUS) != "MSR_PKG_ENERGY_STATUS" {
		t.Errorf("Name = %q", Name(MSR_PKG_ENERGY_STATUS))
	}
	if Name(0xabc) != "MSR_0xabc" {
		t.Errorf("unknown Name = %q", Name(0xabc))
	}
}

func TestGPFaultMessage(t *testing.T) {
	e := &GPFault{Reg: IA32_PERF_CTL, CPU: 7, Write: true}
	if e.Error() != "msr: #GP on wrmsr IA32_PERF_CTL (cpu 7)" {
		t.Fatalf("message = %q", e.Error())
	}
}
