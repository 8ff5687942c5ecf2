package exp

import (
	"bytes"
	"testing"
)

// renderProfile runs the given experiments with the energy-profile
// recorder installed and returns (stdout bytes, folded profile bytes).
func renderProfile(t *testing.T, ids []string, o Options) ([]byte, []byte) {
	t.Helper()
	rec := EnableEnergyProfile()
	defer DisableEnergyProfile()
	var out bytes.Buffer
	RunSuite(ids, o, false, nil, func(r SuiteResult) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		out.Write(r.Output)
	})
	var folded bytes.Buffer
	if err := rec.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), folded.Bytes()
}

// TestEnergyProfileSerialVsParallelByteIdentical is acceptance
// criterion (b): the exported profile of a forked-parallel sweep must
// be byte-identical to the strictly serial reference. tab3/tab4 fork
// every sweep point through forkMap, so the profile's correctness
// hinges on the point-ordered delta merge; fig2 adds a second
// platform construction per experiment.
func TestEnergyProfileSerialVsParallelByteIdentical(t *testing.T) {
	ids := []string{"tab3", "fig2"}
	o := Quick()
	parOut, parProf := renderProfile(t, ids, o)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	serOut, serProf := renderProfile(t, ids, o)
	if !bytes.Equal(parOut, serOut) {
		t.Fatal("experiment output diverged between serial and parallel runs")
	}
	if len(parProf) == 0 {
		t.Fatal("parallel run produced an empty profile")
	}
	if !bytes.Equal(parProf, serProf) {
		i := 0
		for ; i < len(parProf) && i < len(serProf) && parProf[i] == serProf[i]; i++ {
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			hi := i + 80
			if hi > len(b) {
				hi = len(b)
			}
			return string(b[lo:hi])
		}
		t.Fatalf("profiles diverge at byte %d:\nparallel: %q\nserial:   %q",
			i, clip(parProf), clip(serProf))
	}
}

// TestEnergyProfileRepeatable: two identical profiled runs emit
// byte-identical folded profiles (no wall-clock, map-order or
// scheduling artifacts in the export).
func TestEnergyProfileRepeatable(t *testing.T) {
	ids := []string{"tab3"}
	o := Quick()
	_, p1 := renderProfile(t, ids, o)
	_, p2 := renderProfile(t, ids, o)
	if len(p1) == 0 {
		t.Fatal("empty profile")
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("repeated profiled runs emitted different profiles")
	}
}

// TestEnergyProfileDisabledByDefault: without the recorder installed,
// platforms run unprofiled (options unmarked, no collector armed).
func TestEnergyProfileDisabledByDefault(t *testing.T) {
	var o Options
	if o.liveID != "" {
		t.Fatal("zero Options carries an experiment mark")
	}
	if activeEnergyProfile.Load() != nil {
		t.Fatal("recorder installed without EnableEnergyProfile")
	}
}
