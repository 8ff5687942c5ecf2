package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hswsim/internal/pproftest"
)

// TestCPUProfileLabelsExperiments: a -cpuprofile of a multi-experiment
// run carries an exp=<id> label for every experiment and point=<index>
// labels on sweep points, so `go tool pprof -tagfocus=exp=fig7` splits
// the wall time by experiment.
func TestCPUProfileLabelsExperiments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "tab3,fig7", "-scale", "0.5", "-no-cache", "-cpuprofile", path},
		&stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prof, err := pproftest.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	exps := map[string]int{}
	points := 0
	for _, s := range prof.Samples {
		if id, ok := s.Labels["exp"]; ok {
			exps[id]++
		}
		if _, ok := s.Labels["point"]; ok {
			if s.Labels["exp"] == "" {
				t.Fatalf("sample with point=%s has no exp label: %v", s.Labels["point"], s.Labels)
			}
			points++
		}
	}
	if exps["tab3"] == 0 || exps["fig7"] == 0 || len(exps) != 2 {
		t.Fatalf("exp labels over %d samples: %v, want tab3 and fig7 only", len(prof.Samples), exps)
	}
	if points == 0 {
		t.Fatalf("no sample carries a point label (exp labels %v)", exps)
	}
}
