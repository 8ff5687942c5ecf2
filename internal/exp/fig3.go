package exp

import (
	"fmt"

	"hswsim/internal/report"
	"hswsim/internal/sim"
	"hswsim/internal/stats"
	"hswsim/internal/uarch"
	"hswsim/internal/workload"
)

// Fig3Class is one of the four FTaLaT experiment classes of Figure 3,
// distinguished by when the next transition is requested relative to
// the last detected frequency change.
type Fig3Class int

const (
	// RandomDelay: requests at random times — latency uniform between
	// the switching time and grid period + switching time.
	RandomDelay Fig3Class = iota
	// InstantAfterChange: request immediately after detecting the last
	// change — latency concentrates near the full ~500 us grid period.
	InstantAfterChange
	// Delay400us: request 400 us after the last change — ~100 us class.
	Delay400us
	// Delay500us: request ~500 us after the last change — bimodal:
	// immediate or a full extra period.
	Delay500us
)

func (c Fig3Class) String() string {
	switch c {
	case RandomDelay:
		return "random delay"
	case InstantAfterChange:
		return "instant after change"
	case Delay400us:
		return "400 us delay"
	case Delay500us:
		return "500 us delay"
	default:
		return fmt.Sprintf("Fig3Class(%d)", int(c))
	}
}

// Fig3Result holds the transition-latency distributions.
type Fig3Result struct {
	Histograms map[Fig3Class]*stats.Histogram
	Samples    int
}

// Fig3 reproduces Figure 3: 1000 measured p-state transition latencies
// per class, switching between 1.2 and 1.3 GHz on one core (the paper's
// modified FTaLaT, verified against actual cycle counts).
func Fig3(o Options) (*Fig3Result, error) {
	samples := o.count(1000)
	res := &Fig3Result{
		Histograms: map[Fig3Class]*stats.Histogram{},
		Samples:    samples,
	}
	for _, class := range []Fig3Class{RandomDelay, InstantAfterChange, Delay400us, Delay500us} {
		h := stats.NewHistogram(0, 600, 60) // us
		sys, err := o.newHSW()
		if err != nil {
			return nil, err
		}
		if err := sys.AssignKernel(0, workload.BusyWait(), 1); err != nil {
			return nil, err
		}
		sys.SetPState(0, 1200)
		sys.Run(10 * sim.Millisecond)
		rng := sim.NewRNG(o.seed() ^ uint64(class+1))
		target := uarch.MHz(1300)
		// Detection overhead of the measurement loop (the 20 us
		// busy-wait frequency verification plus loop cost).
		const detect = 2 * sim.Microsecond
		for i := 0; i < samples; i++ {
			// Position the request per the class's delay policy. The
			// "last frequency change" is the completion time of the
			// previous transition, detected `detect` later.
			switch class {
			case RandomDelay:
				sys.Run(sim.Time(rng.Uniform(0.3, 1.8) * float64(sim.Millisecond)))
			case InstantAfterChange:
				sys.Run(detect)
			case Delay400us:
				// Userspace sleeps carry tens of us of jitter.
				sys.Run(detect + rng.Jitter(400*sim.Microsecond, 30*sim.Microsecond))
			case Delay500us:
				// A delay "in the order of 500 us" straddles the next
				// grid opportunity — the source of the bimodal split.
				sys.Run(detect + rng.Jitter(500*sim.Microsecond, 30*sim.Microsecond))
			}
			if err := sys.SetPState(0, target); err != nil {
				return nil, err
			}
			requested := sys.Now()
			// Wait until the transition lands (poll the domain like the
			// cycle-count verification loop would).
			deadline := requested + 3*sim.Millisecond
			for sys.CoreFreqMHz(0) != target && sys.Now() < deadline {
				sys.Run(2 * sim.Microsecond)
			}
			tr, ok := sys.Core(0).Domain().LastTransition()
			if !ok || tr.To != target {
				return nil, fmt.Errorf("exp: transition %d lost (class %v)", i, class)
			}
			h.Add(tr.Latency().Micros())
			// Continue from the detected completion.
			if tr.CompletedAt > sys.Now() {
				sys.RunUntil(tr.CompletedAt)
			}
			target, _ = flip(target)
		}
		res.Histograms[class] = h
	}
	return res, nil
}

func flip(f uarch.MHz) (uarch.MHz, bool) {
	if f == 1300 {
		return 1200, true
	}
	return 1300, true
}

// Render draws the four histograms.
func (r *Fig3Result) Render() string {
	out := fmt.Sprintf("Figure 3: p-state transition latency histograms (1.2 <-> 1.3 GHz, %d samples/class)\n\n", r.Samples)
	for _, class := range []Fig3Class{RandomDelay, InstantAfterChange, Delay400us, Delay500us} {
		h := r.Histograms[class]
		out += fmt.Sprintf("-- %s: min %.0f us, median %.0f us, max %.0f us\n",
			class, h.Min(), h.Median(), h.Max())
		out += h.Render(40, "us")
		out += "\n"
	}
	return out
}

// Fig4Result verifies the presumed transition mechanism of Figure 4:
// cores of one package change frequency at the same opportunity; cores
// of different packages transition independently.
type Fig4Result struct {
	SameSocketDeltaUS  []float64 // grant-time deltas, same socket
	CrossSocketDeltaUS []float64 // grant-time deltas, different sockets
}

// Fig4 runs simultaneous two-core transition requests.
func Fig4(o Options) (*Fig4Result, error) {
	res := &Fig4Result{}
	trials := o.count(40)
	sys, err := o.newHSW()
	if err != nil {
		return nil, err
	}
	local := []int{0, 1}
	remote := []int{0, sys.CPUs() - 1}
	for _, cpu := range []int{0, 1, sys.CPUs() - 1} {
		if err := sys.AssignKernel(cpu, workload.BusyWait(), 1); err != nil {
			return nil, err
		}
	}
	rng := sim.NewRNG(o.seed() ^ 0xF16)
	for i := 0; i < trials; i++ {
		for _, pair := range [][]int{local, remote} {
			// Park the pair at 1.2 GHz, then request 1.3 GHz on both
			// cores in the same instant at a random grid offset.
			for _, cpu := range pair {
				if err := sys.SetPState(cpu, 1200); err != nil {
					return nil, err
				}
			}
			sys.Run(3 * sim.Millisecond)
			sys.Run(sim.Time(rng.Uniform(0, 1) * float64(sim.Millisecond)))
			for _, cpu := range pair {
				if err := sys.SetPState(cpu, 1300); err != nil {
					return nil, err
				}
			}
			sys.Run(2 * sim.Millisecond)
			var grants []sim.Time
			for _, cpu := range pair {
				tr, ok := sys.Core(cpu).Domain().LastTransition()
				if !ok || tr.To != 1300 {
					return nil, fmt.Errorf("exp: missing transition on cpu %d", cpu)
				}
				grants = append(grants, tr.GrantedAt)
			}
			delta := (grants[1] - grants[0]).Micros()
			if delta < 0 {
				delta = -delta
			}
			if pair[1] == 1 {
				res.SameSocketDeltaUS = append(res.SameSocketDeltaUS, delta)
			} else {
				res.CrossSocketDeltaUS = append(res.CrossSocketDeltaUS, delta)
			}
		}
	}
	return res, nil
}

// Render summarizes the grant synchronization.
func (r *Fig4Result) Render() string {
	t := report.NewTable("Figure 4: frequency-change opportunity synchronization",
		"Pair", "mean |grant delta| [us]", "max [us]")
	mean, max := meanMax(r.SameSocketDeltaUS)
	t.AddRow("same socket", report.F("%.2f", mean), report.F("%.2f", max))
	mean, max = meanMax(r.CrossSocketDeltaUS)
	t.AddRow("different sockets", report.F("%.2f", mean), report.F("%.2f", max))
	return t.String() +
		"cores of one package share the ~500 us opportunity grid;\npackages run independent grids (PCU-driven, Section VI-A)\n"
}

func meanMax(xs []float64) (mean, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
		if x > max {
			max = x
		}
	}
	return s / float64(len(xs)), max
}
