package uarch

import "testing"

func TestAdditionalSKUsValidate(t *testing.T) {
	for _, s := range []*Spec{E52630v3(), E52699v3()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Model, err)
		}
	}
}

// HaswellEPDieFor returns the die core count (8, 12 or 18) used for a
// Haswell-EP SKU with the given number of enabled cores (Section II-A):
// 4/6/8-core units are cut from the 8-core die, 10/12 from the 12-core
// die, 14/16/18 from the 18-core die.
func HaswellEPDieFor(cores int) (dieCores int, ok bool) {
	switch {
	case cores >= 4 && cores <= 8:
		return 8, true
	case cores == 10 || cores == 12:
		return 12, true
	case cores == 14 || cores == 16 || cores == 18:
		return 18, true
	default:
		return 0, false
	}
}

func TestSKUDieSelection(t *testing.T) {
	if s := E52630v3(); s.DiesCores != 8 {
		t.Errorf("E5-2630 v3 die = %d, want the single-ring 8-core die", s.DiesCores)
	}
	if s := E52699v3(); s.DiesCores != 18 {
		t.Errorf("E5-2699 v3 die = %d, want the 8+10 dual-ring die", s.DiesCores)
	}
	// Consistency with the paper's die table.
	for _, s := range []*Spec{E52630v3(), E52680v3(), E52699v3()} {
		die, ok := HaswellEPDieFor(s.Cores)
		if !ok || die != s.DiesCores {
			t.Errorf("%s: %d cores should use the %d-core die, spec says %d",
				s.Model, s.Cores, die, s.DiesCores)
		}
	}
}

func TestSKULaddersMonotone(t *testing.T) {
	for _, s := range []*Spec{E52630v3(), E52699v3()} {
		if len(s.TurboLadder) != s.Cores || len(s.AVXLadder) != s.Cores {
			t.Errorf("%s: ladder lengths %d/%d, want %d", s.Model,
				len(s.TurboLadder), len(s.AVXLadder), s.Cores)
		}
		for n := 1; n <= s.Cores; n++ {
			if s.TurboLimit(n, true) > s.TurboLimit(n, false) {
				t.Errorf("%s: AVX turbo above non-AVX at %d cores", s.Model, n)
			}
		}
		if s.AVXBaseMHz >= s.BaseMHz {
			t.Errorf("%s: AVX base %v not below nominal %v", s.Model, s.AVXBaseMHz, s.BaseMHz)
		}
	}
}

func TestDerivedUncoreMaps(t *testing.T) {
	for _, s := range []*Spec{E52630v3(), E52699v3()} {
		keys := append([]MHz{s.TurboSettingMHz()}, s.PStates()...)
		for _, k := range keys {
			a, okA := s.UncoreMapActive[k]
			p, okP := s.UncoreMapPassive[k]
			if !okA || !okP {
				t.Errorf("%s: map missing key %v", s.Model, k)
				continue
			}
			if a < s.UncoreMinMHz || a > s.UncoreMaxMHz || p > a {
				t.Errorf("%s: bad map entry %v -> %v/%v", s.Model, k, a, p)
			}
		}
		// Turbo pins the uncore at/near max; bottom converges to min.
		if s.UncoreMapActive[s.TurboSettingMHz()] != s.UncoreMaxMHz {
			t.Errorf("%s: turbo uncore = %v", s.Model, s.UncoreMapActive[s.TurboSettingMHz()])
		}
		if s.UncoreMapActive[s.MinMHz] != s.UncoreMinMHz {
			t.Errorf("%s: bottom uncore = %v", s.Model, s.UncoreMapActive[s.MinMHz])
		}
	}
	// The derivation reproduces the measured E5-2680 v3 points where the
	// ranges overlap.
	ref := E52680v3()
	derived := deriveUncoreMap(ref, 0)
	for _, k := range []MHz{2500, 2300, 2100, 1900, 1600, 1200} {
		if derived[k] != ref.UncoreMapActive[k] {
			t.Errorf("derivation diverges from Table III at %v: %v vs %v",
				k, derived[k], ref.UncoreMapActive[k])
		}
	}
}
