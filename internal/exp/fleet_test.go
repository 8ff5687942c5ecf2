package exp

import (
	"bytes"
	"testing"

	"hswsim/internal/fleet"
	"hswsim/internal/obs"
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

// batchFleetStudy renders the fleet study from one batch fleet per
// ladder point (fleet.New, Step, Measure, every node alive at once),
// reduced and rendered by the study's own helpers.
func batchFleetStudy(t *testing.T, o Options) []byte {
	t.Helper()
	parent, cfg, ladder, err := fleetSetup(o)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]FleetPoint, len(ladder))
	for i, n := range ladder {
		c := cfg
		c.Nodes = n
		fl, err := fleet.New(parent, c)
		if err != nil {
			t.Fatal(err)
		}
		fl.Step(o.dur(fleetStep))
		points[i] = fleetPoint(fl.Measure(0, o.dur(fleetWindow)))
		fl.Release()
	}
	return []byte(fleetTable(points).String())
}

// TestFleetStudySweepMatchesBatch is the study's differential test:
// reading every ladder point off one sweep of the largest fleet renders
// the same bytes as running a batch fleet per ladder point.
func TestFleetStudySweepMatchesBatch(t *testing.T) {
	o := Quick()
	o.Fleet.Nodes = 256
	sweep := renderFleetStudy(t, o)
	if batch := batchFleetStudy(t, o); !bytes.Equal(sweep, batch) {
		t.Fatalf("fleet study from sweep prefixes diverges from one batch fleet per ladder point:\nsweep:\n%s\nbatch:\n%s", sweep, batch)
	}
}

// countedFleetStudy renders the fleet study and returns how many nodes
// it ran and how many of its forks were fresh (not recycled from the
// free list).
func countedFleetStudy(t *testing.T, o Options) (out []byte, nodes, fresh int64) {
	t.Helper()
	nodes0 := obs.FleetNodes.Value()
	fresh0 := obs.SimForks.Value() - obs.CoreForkReuse.Value()
	out = renderFleetStudy(t, o)
	return out, obs.FleetNodes.Value() - nodes0, obs.SimForks.Value() - obs.CoreForkReuse.Value() - fresh0
}

// TestFleetStudy4096ByteIdentical scales the same gate to the full
// 4096-node ladder — the acceptance bar for variation at scale. It
// also pins the streamed study's cost: 4096 node runs for the five
// ladder points (one per distinct chip), and no more live nodes, so no
// more fresh forks, than there are compute slots. Too heavy for the
// race detector build, which runs the 256-node gate above instead.
func TestFleetStudy4096ByteIdentical(t *testing.T) {
	if raceEnabled {
		t.Skip("4096-node fleet is too heavy under the race detector (256-node gate covers it)")
	}
	if testing.Short() {
		t.Skip("4096-node fleet skipped in -short mode")
	}
	o := Quick()
	o.Fleet.Nodes = 4096
	par, nodes, fresh := countedFleetStudy(t, o)
	if nodes != 4096 || fresh > int64(sched.Cap()) {
		t.Errorf("parallel 4096-node study: %d node runs and %d fresh forks, want 4096 and at most %d", nodes, fresh, sched.Cap())
	}
	parallelWorkers = 1
	defer func() { parallelWorkers = 0 }()
	ser, nodes, fresh := countedFleetStudy(t, o)
	if nodes != 4096 || fresh > 1 {
		t.Errorf("serial 4096-node study: %d node runs and %d fresh forks, want 4096 and at most 1", nodes, fresh)
	}
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
