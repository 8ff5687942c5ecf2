package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hswsim/internal/eprof"
	"hswsim/internal/obs"
	"hswsim/internal/pproftest"
)

// TestEprofGate is the CI gate for the energy profiler (`make eprofgate`):
// a full-suite scale-0.25 run with -eprof must (1) leave stdout
// byte-identical to a profiling-off run, (2) emit pprof protobuf that
// decodes — with no external tools — to both sample types and nonzero
// samples, and (3) emit folded stacks whose value column sums exactly
// to the manifest's recorded total energy (the 1e-9 J reconciliation,
// exact in integer nanojoules).
func TestEprofGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite three times at scale 0.25")
	}
	dir := t.TempDir()
	base := []string{"-run", "all", "-scale", "0.25", "-seed", "0x5eed", "-no-cache"}

	do := func(extra ...string) (stdout, stderr bytes.Buffer, code int) {
		code = run(append(append([]string{}, base...), extra...), &stdout, &stderr)
		return
	}

	plain, perr, pcode := do()
	if pcode != 0 {
		t.Fatalf("plain run exit %d, stderr:\n%s", pcode, perr.String())
	}
	if plain.Len() == 0 {
		t.Fatal("plain run produced no output")
	}

	pbPath := filepath.Join(dir, "prof.pb.gz")
	outPB, errPB, codePB := do("-eprof", pbPath)
	if codePB != 0 {
		t.Fatalf("pprof-profiled run exit %d, stderr:\n%s", codePB, errPB.String())
	}

	foldedPath := filepath.Join(dir, "prof.folded")
	report := filepath.Join(dir, "report.json")
	outF, errF, codeF := do("-eprof", foldedPath, "-report", report)
	if codeF != 0 {
		t.Fatalf("folded-profiled run exit %d, stderr:\n%s", codeF, errF.String())
	}

	// (1) stdout byte-identity with profiling on — acceptance (a).
	if !bytes.Equal(plain.Bytes(), outPB.Bytes()) {
		t.Error("-eprof (pprof) changed stdout")
	}
	if !bytes.Equal(plain.Bytes(), outF.Bytes()) {
		t.Error("-eprof (folded) changed stdout")
	}

	// (2) the protobuf decodes in-process with both sample types and
	// nonzero samples.
	f, err := os.Open(pbPath)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := pproftest.Parse(f)
	f.Close()
	if err != nil {
		t.Fatalf("pprof export does not decode: %v", err)
	}
	if len(parsed.SampleTypes) != 2 || parsed.SampleTypes[0] != eprof.SampleTypeEnergy ||
		parsed.SampleTypes[1] != eprof.SampleTypeVTime {
		t.Fatalf("sample types = %v", parsed.SampleTypes)
	}
	if len(parsed.Samples) == 0 {
		t.Fatal("pprof export has zero samples")
	}
	var pbEnergy, pbVTime int64
	for _, s := range parsed.Samples {
		if len(s.Values) != 2 {
			t.Fatalf("sample has %d values, want 2", len(s.Values))
		}
		pbEnergy += s.Values[0]
		pbVTime += s.Values[1]
	}
	if pbEnergy <= 0 || pbVTime <= 0 {
		t.Fatalf("profiled totals energy=%d nJ vtime=%d ns, want both > 0", pbEnergy, pbVTime)
	}

	// (3) folded column sum == manifest total energy, exactly.
	var m obs.Manifest
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Profile == nil {
		t.Fatal("manifest has no profile summary")
	}
	folded, err := os.ReadFile(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	var foldedSum int64
	lines := strings.Split(strings.TrimSpace(string(folded)), "\n")
	for _, ln := range lines {
		v, err := strconv.ParseInt(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("folded line %q: %v", ln, err)
		}
		foldedSum += v
	}
	if len(lines) != m.Profile.Stacks {
		t.Errorf("folded has %d stacks, manifest says %d", len(lines), m.Profile.Stacks)
	}
	if foldedSum != m.Profile.EnergyNJ {
		t.Errorf("folded column sum %d nJ != manifest energy %d nJ", foldedSum, m.Profile.EnergyNJ)
	}
	// Identical tuples profile identically: the pprof run's totals must
	// match the folded run's.
	if pbEnergy != m.Profile.EnergyNJ {
		t.Errorf("pprof energy sum %d nJ != manifest energy %d nJ", pbEnergy, m.Profile.EnergyNJ)
	}
	if pbVTime != m.Profile.VTimeNS {
		t.Errorf("pprof vtime sum %d ns != manifest vtime %d ns", pbVTime, m.Profile.VTimeNS)
	}
}

// TestEprofWriteFailureExitsNonzero pins the -eprof error handling
// (same contract as -memprofile): an uncreatable path fails fast with
// exit 2 before any simulation runs.
func TestEprofWriteFailureExitsNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	bad := filepath.Join(t.TempDir(), "no-such-dir", "prof.pb.gz")
	code := run([]string{"-run", "fig5", "-scale", "0.05", "-eprof", bad}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !bytes.Contains(stderr.Bytes(), []byte("eprof")) {
		t.Fatalf("missing eprof diagnostic:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("failed run wrote %d bytes to stdout", stdout.Len())
	}
}

// TestEprofBypassesCache: like -trace-vt, -eprof forces live runs even
// with a cache directory (a replayed result has no integrator segments
// to attribute) and says so on stderr.
func TestEprofBypassesCache(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "fig5", "-scale", "0.05",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-eprof", filepath.Join(dir, "prof.folded")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("result cache bypassed")) {
		t.Errorf("missing cache-bypass note, stderr:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "prof.folded"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("folded profile is empty")
	}
	if !bytes.Contains(raw, []byte("fig5#0;")) {
		t.Fatalf("folded stacks missing fig5#0 root:\n%.300s", raw)
	}
}
