package uarch

// This file is the concrete part catalog. The entries pin two kinds of
// numbers:
//
//   - published data (Table I parameters, frequency ladders, cache sizes,
//     TDP) taken from the paper and the referenced Intel documents;
//   - calibration constants for the analytic power/performance models,
//     chosen so that the simulated platform reproduces the paper's
//     measured magnitudes (e.g. 120 W package ceiling reached by
//     FIRESTARTER at ~2.3 GHz core / ~2.3 GHz uncore; node idle at
//     261.5 W AC with fans at maximum; DRAM read bandwidth saturating
//     near 62 GB/s at 8 cores). The calibration tests in power and cache
//     packages keep these honest.

// E52680v3 returns the paper's processor under test: the 12-core
// Haswell-EP Xeon E5-2680 v3 (Section III, Table II).
func E52680v3() *Spec {
	s := &Spec{
		Generation:     HaswellEP,
		Model:          "Intel Xeon E5-2680 v3",
		Cores:          12,
		ThreadsPerCore: 2,
		DiesCores:      12, // cut from the 12-core die (8+4 partitions)

		BaseMHz:    2500,
		MinMHz:     1200,
		PStateStep: 100,
		// Non-AVX opportunistic ladder by active core count
		// (3.3 GHz max single-core turbo, Table II).
		TurboLadder: []MHz{3300, 3300, 3100, 3100, 3000, 3000, 2900, 2900, 2900, 2900, 2900, 2900},
		// AVX turbo frequencies "between 2.8 and 3.1 GHz, depending on
		// the number of active cores" (Section II-F).
		AVXLadder:  []MHz{3100, 3100, 3000, 3000, 2900, 2900, 2800, 2800, 2800, 2800, 2800, 2800},
		AVXBaseMHz: 2100,

		UncoreMinMHz: 1200,
		UncoreMaxMHz: 3000,
		UncorePolicy: UncoreScaling,
		// Reverse-engineered UFS operating points for the single-thread
		// no-memory-stall scenario (paper Table III). Key 2501 is the
		// turbo setting (TurboSettingMHz).
		UncoreMapActive: map[MHz]MHz{
			2501: 3000, 2500: 2200, 2400: 2100, 2300: 2000, 2200: 1900,
			2100: 1800, 2000: 1750, 1900: 1650, 1800: 1600, 1700: 1500,
			1600: 1400, 1500: 1300, 1400: 1200, 1300: 1200, 1200: 1200,
		},
		UncoreMapPassive: map[MHz]MHz{
			2501: 2950, 2500: 2100, 2400: 2000, 2300: 1900, 2200: 1800,
			2100: 1700, 2000: 1650, 1900: 1550, 1800: 1500, 1700: 1400,
			1600: 1200, 1500: 1200, 1400: 1200, 1300: 1200, 1200: 1200,
		},

		RAPLMode:          RAPLMeasured,
		RAPLDRAMSupported: true,
		PP0Supported:      false, // PP0 not supported on Haswell-EP (Section IV)

		TableI: TableI{
			DecodeWidth:       "4(+1) x86/cycle",
			AllocationQueue:   "56",
			ExecuteUopsCycle:  8,
			RetireUopsCycle:   4,
			SchedulerEntries:  60,
			ROBEntries:        192,
			IntRegisters:      168,
			FPRegisters:       168,
			SIMDISA:           "AVX2",
			FPUWidth:          "2x256 Bit FMA",
			FlopsPerCycleFP64: 16,
			LoadBuffers:       72,
			StoreBuffers:      42,
			L1DLoadBytesCycle: 32,
			L1DLoadPorts:      2,
			L1DStoreBytes:     32,
			L2BytesPerCycle:   64,
			SupportedMemory:   "4xDDR4-2133",
			DRAMBandwidthGBs:  68.2,
			QPISpeedGTs:       9.6,
		},
		Cache: CacheGeometry{
			L1DBytes:       32 << 10,
			L2Bytes:        256 << 10,
			L3BytesPerCore: 2560 << 10, // 2.5 MiB slice per core, 30 MiB total
			LineBytes:      64,
		},
		Mem: MemoryModel{
			// Latency decomposition: core-clocked path (L1/L2 lookup,
			// superqueue), uncore-clocked path (ring hops + L3 slice /
			// home agent), fixed DRAM device time. These produce the
			// generation-specific frequency sensitivity of Fig 7:
			// with UFS pushing the uncore to 3.0 GHz under stalls, L3
			// bandwidth still tracks core frequency via the core term.
			L3CoreCycles:        26,
			L3UncoreCycles:      18,
			MemCoreCycles:       30,
			MemUncoreCycles:     45,
			MemDRAMNanos:        58,
			LFBPerCore:          10,
			MLPPerThread:        5,
			PrefetchLines:       3.5,
			DDRPeakGBs:          68.2,
			DDRStreamEff:        0.91, // ~62 GB/s achievable streaming reads
			UncoreBytesPerCycle: 12,   // per L3 slice, aggregate ring capacity
			MemGBsPerUncoreGHz:  20.7,
			QPIGBs:              30.0,
			QPIExtraNanos:       60.0,
		},
		Power: PowerModel{
			VMin:         0.75, // at 1.2 GHz
			VMax:         1.25,
			VSlopePerGHz: 0.22,
			// Calibrated from the paper's Table IV operating points:
			// the core/uncore pairs (2.30, 2.33), (2.27, 2.46) and
			// (2.19, 2.80) GHz all sit on the 120 W TDP contour for
			// 12 FIRESTARTER cores with Hyper-Threading, which fixes
			// both effective capacitances.
			CeffCore:             2.41,
			AVXActivityBoost:     1.30,
			CeffUncore:           6.78,
			LeakPerCore:          0.90,
			VNom:                 1.00,
			PkgStatic:            8.0,
			DRAMStaticPerDIMM:    1.50,
			DRAMPicoJoulePerByte: 350,
			ThermalResistance:    0.35, // degC per package watt over ambient
			LeakTempCoeff:        0.004,
			TDP:                  120,
		},

		PStateGridPeriodUS: 500, // Section VI-A / Figure 4
		PStateSwitchUS:     21,  // minimum observed transition latency
		EETPollPeriodUS:    1000,
		AVXRelaxUS:         1000,
	}
	return s
}

// E52670SNB returns the Sandy Bridge-EP comparison part (the class of
// machine behind Figure 2a, the grey baselines of Figures 5/6 and the
// Sandy Bridge curves of Figure 7).
func E52670SNB() *Spec {
	s := &Spec{
		Generation:     SandyBridgeEP,
		Model:          "Intel Xeon E5-2670 (Sandy Bridge-EP)",
		Cores:          8,
		ThreadsPerCore: 2,
		DiesCores:      8,

		BaseMHz:     2600,
		MinMHz:      1200,
		PStateStep:  100,
		TurboLadder: []MHz{3300, 3300, 3200, 3100, 3000, 3000, 3000, 3000},
		AVXLadder:   nil, // no AVX frequency concept before Haswell
		AVXBaseMHz:  0,

		// Uncore clock is common with the cores on Sandy Bridge-EP.
		UncoreMinMHz: 1200,
		UncoreMaxMHz: 3300,
		UncorePolicy: UncoreCoupled,

		RAPLMode:          RAPLModeled,
		RAPLDRAMSupported: true,
		PP0Supported:      true,

		TableI: TableI{
			DecodeWidth:       "4(+1) x86/cycle",
			AllocationQueue:   "28/thread",
			ExecuteUopsCycle:  6,
			RetireUopsCycle:   4,
			SchedulerEntries:  54,
			ROBEntries:        168,
			IntRegisters:      160,
			FPRegisters:       144,
			SIMDISA:           "AVX",
			FPUWidth:          "2x256 Bit (1 add, 1 mul)",
			FlopsPerCycleFP64: 8,
			LoadBuffers:       64,
			StoreBuffers:      36,
			L1DLoadBytesCycle: 16,
			L1DLoadPorts:      2,
			L1DStoreBytes:     16,
			L2BytesPerCycle:   32,
			SupportedMemory:   "4xDDR3-1600",
			DRAMBandwidthGBs:  51.2,
			QPISpeedGTs:       8.0,
		},
		Cache: CacheGeometry{
			L1DBytes:       32 << 10,
			L2Bytes:        256 << 10,
			L3BytesPerCore: 2560 << 10,
			LineBytes:      64,
		},
		Mem: MemoryModel{
			// With the coupled uncore, every latency term scales with
			// the core clock: L3 bandwidth is exactly linear in f and
			// DRAM bandwidth collapses at reduced clock speeds (Fig 7).
			L3CoreCycles:        24,
			L3UncoreCycles:      22,
			MemCoreCycles:       32,
			MemUncoreCycles:     70,
			MemDRAMNanos:        52,
			LFBPerCore:          10,
			MLPPerThread:        5,
			PrefetchLines:       3.0,
			DDRPeakGBs:          51.2,
			DDRStreamEff:        0.88,
			UncoreBytesPerCycle: 11,
			MemGBsPerUncoreGHz:  17.0,
			QPIGBs:              25.0,
			QPIExtraNanos:       72.0,
		},
		Power: PowerModel{
			VMin:                 0.80,
			VMax:                 1.30,
			VSlopePerGHz:         0.20,
			CeffCore:             3.10,
			AVXActivityBoost:     1.15,
			CeffUncore:           6.00,
			LeakPerCore:          1.30,
			VNom:                 1.05,
			PkgStatic:            10.0,
			DRAMStaticPerDIMM:    2.00,
			DRAMPicoJoulePerByte: 420,
			ThermalResistance:    0.35,
			LeakTempCoeff:        0.004,
			TDP:                  115,
		},

		// Pre-Haswell parts carry out p-state requests immediately
		// (Section VI-A): no opportunity grid.
		PStateGridPeriodUS: 0,
		PStateSwitchUS:     10,
		EETPollPeriodUS:    0,
		AVXRelaxUS:         0,
	}
	return s
}

// X5670WSM returns the Westmere-EP baseline (fixed uncore clock), used in
// the Figure 7 cross-generation bandwidth comparison.
func X5670WSM() *Spec {
	s := &Spec{
		Generation:     WestmereEP,
		Model:          "Intel Xeon X5670 (Westmere-EP)",
		Cores:          6,
		ThreadsPerCore: 2,
		DiesCores:      6,

		BaseMHz:     2933,
		MinMHz:      1600,
		PStateStep:  133,
		TurboLadder: []MHz{3333, 3333, 3066, 3066, 3066, 3066},

		// Fixed uncore clock (Nehalem-EP/Westmere-EP).
		UncoreMinMHz: 2666,
		UncoreMaxMHz: 2666,
		UncorePolicy: UncoreFixed,

		RAPLMode:          RAPLModeled, // RAPL did not exist; modeled stand-in
		RAPLDRAMSupported: false,
		PP0Supported:      false,

		TableI: TableI{
			DecodeWidth:       "4 x86/cycle",
			AllocationQueue:   "28/thread",
			ExecuteUopsCycle:  6,
			RetireUopsCycle:   4,
			SchedulerEntries:  36,
			ROBEntries:        128,
			IntRegisters:      0,
			FPRegisters:       0,
			SIMDISA:           "SSE4.2",
			FPUWidth:          "128 Bit",
			FlopsPerCycleFP64: 4,
			LoadBuffers:       48,
			StoreBuffers:      32,
			L1DLoadBytesCycle: 16,
			L1DLoadPorts:      1,
			L1DStoreBytes:     16,
			L2BytesPerCycle:   32,
			SupportedMemory:   "3xDDR3-1333",
			DRAMBandwidthGBs:  32.0,
			QPISpeedGTs:       6.4,
		},
		Cache: CacheGeometry{
			L1DBytes:       32 << 10,
			L2Bytes:        256 << 10,
			L3BytesPerCore: 2048 << 10,
			LineBytes:      64,
		},
		Mem: MemoryModel{
			// The fixed uncore/northbridge clock dominates the memory
			// path: DRAM bandwidth is almost independent of the core
			// clock, the behaviour Haswell-EP returns to (Fig 7b).
			L3CoreCycles:        18,
			L3UncoreCycles:      38,
			MemCoreCycles:       22,
			MemUncoreCycles:     95,
			MemDRAMNanos:        50,
			LFBPerCore:          10,
			MLPPerThread:        4,
			PrefetchLines:       3.0,
			DDRPeakGBs:          32.0,
			DDRStreamEff:        0.85,
			UncoreBytesPerCycle: 10,
			MemGBsPerUncoreGHz:  10.2,
			QPIGBs:              20.0,
			QPIExtraNanos:       85.0,
		},
		Power: PowerModel{
			VMin:                 0.85,
			VMax:                 1.35,
			VSlopePerGHz:         0.18,
			CeffCore:             3.40,
			AVXActivityBoost:     1.0,
			CeffUncore:           7.00,
			LeakPerCore:          1.60,
			VNom:                 1.10,
			PkgStatic:            12.0,
			DRAMStaticPerDIMM:    2.50,
			DRAMPicoJoulePerByte: 450,
			ThermalResistance:    0.35,
			LeakTempCoeff:        0.004,
			TDP:                  95,
		},

		PStateGridPeriodUS: 0,
		PStateSwitchUS:     10,
	}
	return s
}
