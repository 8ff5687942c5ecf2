package exp

import (
	"bytes"
	"testing"
)

// renderFleetStudy runs the fleet study and returns the rendered table.
func renderFleetStudy(t *testing.T, o Options) []byte {
	t.Helper()
	_, tab, err := FleetVariationStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(tab.String())
}

// TestFleetStudySerialVsParallel is the fleet determinism gate run by
// make golden (under the race detector): a 256-node fleet study
// rendered with full parallelism must be byte-identical to the
// strictly serial reference.
func TestFleetStudySerialVsParallel(t *testing.T) {
	o := Quick()
	o.Fleet.Nodes = 256
	par := renderFleetStudy(t, o)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser := renderFleetStudy(t, o)
	if !bytes.Equal(par, ser) {
		t.Fatalf("fleet study diverges between parallel and serial runs:\nparallel:\n%s\nserial:\n%s", par, ser)
	}
}

// TestFleetStudy4096ByteIdentical scales the same gate to the full
// 4096-node ladder — the acceptance bar for variation at scale. Too
// heavy for the race detector build, which runs the 256-node gate
// above instead.
func TestFleetStudy4096ByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("4096-node fleet is too heavy under the race detector (256-node gate covers it)")
	}
	if testing.Short() {
		t.Skip("4096-node fleet skipped in -short mode")
	}
	o := Quick()
	o.Fleet.Nodes = 4096
	par := renderFleetStudy(t, o)
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser := renderFleetStudy(t, o)
	if !bytes.Equal(par, ser) {
		t.Fatalf("4096-node fleet study diverges between parallel and serial runs")
	}
}

// TestFleetStudyPoints sanity-checks the study output: ladder sizes,
// a binding cap (mean power near the limit) and a positive spread.
func TestFleetStudyPoints(t *testing.T) {
	o := Quick()
	o.Fleet.Nodes = 64
	points, _, err := FleetVariationStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{16, 64}
	if len(points) != len(wantSizes) {
		t.Fatalf("got %d ladder points, want %d", len(points), len(wantSizes))
	}
	for i, p := range points {
		if p.Nodes != wantSizes[i] {
			t.Errorf("point %d: %d nodes, want %d", i, p.Nodes, wantSizes[i])
		}
		if p.MeanGHz <= 0 || p.MinGHz <= 0 {
			t.Errorf("point %d: non-positive frequency %+v", i, p)
		}
		if p.SpreadPct <= 0 {
			t.Errorf("point %d: no frequency spread under the cap: %+v", i, p)
		}
		if p.TailSlow < 1 || p.P99Slow < 1 {
			t.Errorf("point %d: tail slowdowns must be >= 1: %+v", i, p)
		}
		if p.MeanW <= 0 || p.MeanW > 2.2*fleetCapW {
			t.Errorf("point %d: implausible mean node power %.1f W under a %d W/socket cap", i, p.MeanW, fleetCapW)
		}
	}
}
