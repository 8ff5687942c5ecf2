package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hswsim/internal/exp"
)

// defaultSeed is the suite's default seed, the one the digests are
// pinned at.
const defaultSeed = 0x5eed

// workload is one set of inputs the benchmark runs. README.md records
// why each was chosen.
type workload struct {
	name string
	// ids and scale select the experiments a simulation workload passes
	// to RunSuite; serve has neither.
	ids   []string
	scale float64
	// digest is the sha256 of the `experiments -run <ids> -scale <scale>
	// -no-cache` stdout ("" = check passes against the run's first pass).
	// setupDigest is the same at the set-up pass's scale.
	digest, setupDigest string
}

var workloads = []workload{
	{name: "suite", ids: suiteIDs(), scale: 0.03,
		digest:      "bd96816e9bf90610ac94a4969d046028f6e424127bfd2300a837534d31c04055",
		setupDigest: "cec395a5c2c02a1dcaf21dca984d6240f6f17dc8eaaa4e8a1c72a641cd2ae6b5"},
	{name: "steady", ids: []string{"fig7", "fig8"}, scale: 1,
		digest:      "4441c4f074bfa9aa564b3668bbb442ba7011b805386a785044b592addb2afe88",
		setupDigest: "fe30b4f4795f1893b2178e62f3e072714aba000856c719b56958bb93d32761e9"},
	{name: "fleet", ids: []string{"fleet"}, scale: 0.25,
		digest:      "c56e658b48db80b9491b4963cfc15932e521a72cc181f983266af00c6138de37",
		setupDigest: "235e8cd83d4a5535de6cb0ed4706113fb1ef8508267dffe342706ea70f9e9c5e"},
	{name: "serve"},
}

func suiteIDs() []string {
	var ids []string
	for _, d := range exp.Suite() {
		ids = append(ids, d.ID)
	}
	return ids
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizing holds every size the benchmark runs at. The smoke test shrinks
// it so every code path runs in seconds; the digests only hold at full.
type sizing struct {
	scaleMul    float64 // multiplies a simulation workload's scale
	setupMul    float64 // scale of the cold set-up pass, as a share of the workload's
	batch       int     // serve requests per pass
	hotScale    float64 // scale of the serve hot set
	liveScale   float64 // scale of fresh serve tuples
	ladderScale float64 // scale of the traced run's per-experiment ladder
	fleetNodes  int     // fleet size of the fleet probes
	probeBatch  time.Duration
}

var fullSize = sizing{scaleMul: 1, setupMul: 0.25, batch: 200, hotScale: 0.25, liveScale: 0.1,
	ladderScale: 0.125, fleetNodes: 4096, probeBatch: 20 * time.Millisecond}

// pass is one measured unit of work: a RunSuite call or a batch of
// requests.
type pass struct {
	Wall float64 `json:"wall_s"`
	CPU  float64 `json:"cpu_s"`
	// Ref is the reference loop's wall time next to the pass: the mean
	// of the runs before and after it (after the set-up, for a set-up).
	Ref float64 `json:"ref_s,omitempty"`
	// PeakRSS is the process's peak resident set during a timed pass.
	PeakRSS float64 `json:"peak_rss_mb,omitempty"`
	Digest  string  `json:"digest,omitempty"`
	// Ops and Live are serve request latencies: all, and those that ran
	// a simulation.
	Ops  []float64 `json:"ops_ms,omitempty"`
	Live []float64 `json:"live_ms,omitempty"`
	// PairsCoalesced counts serve pair requests that joined their
	// partner's in-flight run.
	PairsCoalesced int `json:"pairs_coalesced,omitempty"`
	// Attempted and Failed count operations checked inside the pass; a
	// simulation pass is one operation whose digest the parent checks.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Counts    counts   `json:"counts"`
}

// simPass runs the experiments once through RunSuite with no cache, as
// `experiments -no-cache` does, and hashes the output in the CLI's
// stdout format so the digest equals `experiments ... | sha256sum`.
func simPass(ids []string, o exp.Options, tr *tracer, parent int) pass {
	h := sha256.New()
	p := pass{Attempted: 1}
	before := readCounts()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	lane := 0
	exp.RunSuite(ids, o, false, nil, func(r exp.SuiteResult) {
		lane++
		writeCLI(h, r)
		if r.Err != nil {
			p.Errors = append(p.Errors, fmt.Sprintf("%s: %v", r.ID, r.Err))
			return
		}
		// Each experiment starts waiting for its slot when the pass starts.
		tr.add("experiment "+r.ID, parent, lane, t0, t0.Add(r.Elapsed), nil)
	})
	p.Wall = time.Since(t0).Seconds()
	p.CPU = cpuSeconds() - cpu0
	p.Counts = readCounts().minus(before)
	p.Digest = hex.EncodeToString(h.Sum(nil))
	if len(p.Errors) > 0 {
		p.Failed = 1
	}
	return p
}

// simOptions is the RunSuite request of a simulation workload. The
// simulation seed stays at the suite default whatever the benchmark
// seed: the amount of simulated work moves with it (the suite's
// full-integration segments range from 3.41 M at seed 7 to 4.33 M at
// seed 2), which would swamp the run-to-run spread the benchmark has to
// resolve, and the pinned digests then check every pass at every seed.
func simOptions(w workload, sz sizing) exp.Options {
	return exp.Options{Scale: w.scale * sz.scaleMul, Seed: defaultSeed}
}

// simSetup is the set-up of a simulation process: from its exec to the
// end of a cold pass of the workload's experiments at a quarter of its
// scale. That is what a one-shot CLI run pays before the work proper
// (process start, package init, cold heap, empty fork free lists), and
// work moved into init or into first-use tables shows in it.
func simSetup(w workload, sz sizing, t0 time.Time) pass {
	o := simOptions(w, sz)
	o.Scale *= sz.setupMul
	p := simPass(w.ids, o, nil, 0)
	p.Wall = time.Since(t0).Seconds()
	return p
}

// runSimChild measures one process's share of an untraced run: the
// set-up, then timed passes within budget of the process's exec at t0.
func runSimChild(w workload, sz sizing, t0 time.Time, budget time.Duration) (childReport, error) {
	rep := childReport{Setup: simSetup(w, sz, t0)}
	o := simOptions(w, sz)
	var err error
	rep.Passes, err = timedPasses(&rep.Setup, t0, budget, func(int) pass { return simPass(w.ids, o, nil, 0) })
	return rep, err
}

// writeCLI writes one experiment's result as `experiments` prints it on
// stdout (a failed experiment prints its header only).
func writeCLI(w io.Writer, r exp.SuiteResult) {
	fmt.Fprintf(w, "==== %s ====\n", r.ID)
	if r.Err == nil {
		w.Write(r.Output)
		io.WriteString(w, "\n")
	}
}

// goldenPath is the committed reference rendering of the suite.
const goldenPath = "results/experiments-scale0.5.txt"

// runGolden renders the suite at scale 0.5, untimed, and compares it
// byte for byte with the committed reference output.
func runGolden(stdout, stderr io.Writer) int {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: golden: %v\n", err)
		return 1
	}
	var got bytes.Buffer
	exp.RunSuite(suiteIDs(), exp.Options{Scale: 0.5, Seed: defaultSeed}, false, nil, func(r exp.SuiteResult) {
		if r.Err != nil {
			fmt.Fprintf(stderr, "bench: golden: %s: %v\n", r.ID, r.Err)
		}
		writeCLI(&got, r)
	})
	if !bytes.Equal(got.Bytes(), want) {
		g, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(wl) && g[i] == wl[i] {
			i++
		}
		fmt.Fprintf(stderr, "bench: golden: output differs from %s at line %d\n", goldenPath, i+1)
		return 1
	}
	fmt.Fprintf(stdout, "golden: suite at scale 0.5 matches %s (sha256 %x)\n", goldenPath, sha256.Sum256(want))
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
