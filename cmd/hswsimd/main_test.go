package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHelpExitsZero is the regression test for the flag.ErrHelp path:
// asking for usage is a successful interaction, not a flag error
// (see the matching test on cmd/experiments).
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"-h", "-help", "--help"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{arg}, &stdout, &stderr); code != 0 {
			t.Errorf("run(%q) = %d, want 0", arg, code)
		}
		if !strings.Contains(stderr.String(), "-addr") {
			t.Errorf("run(%q) printed no usage text", arg)
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("run(bad flag) = %d, want 2", code)
	}
}

// TestMaxScaleMustBeFiniteAndPositive: a -max-scale that is NaN,
// infinite or not above 0 exits 2 with the usage text before the
// server listens, instead of serving every run with 400 or silently at
// a 1.0 ceiling.
func TestMaxScaleMustBeFiniteAndPositive(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "0", "-3"} {
		var stdout, stderr bytes.Buffer
		code := make(chan int, 1)
		go func() { code <- run([]string{"-addr", "127.0.0.1:0", "-max-scale=" + v}, &stdout, &stderr) }()
		select {
		case c := <-code:
			if c != 2 {
				t.Errorf("-max-scale %s: exit %d, want 2", v, c)
			}
			if !strings.Contains(stderr.String(), "-max-scale") || !strings.Contains(stderr.String(), "-addr") {
				t.Errorf("-max-scale %s: stderr lacks the error and usage text: %q", v, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-max-scale %s: still serving after 10 s, want exit 2 before listening", v)
		}
	}
}

func TestCheckManifest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	clean := write("clean.json", `{
		"tool": "hswsimd", "experiments": [], "failed": 0, "wall_ms": 42,
		"metrics": [
			{"name":"server_requests_total","kind":"counter","labels":{"endpoint":"run"},"value":12},
			{"name":"server_failures_total","kind":"counter","value":0},
			{"name":"expcache_put_failures_total","kind":"counter","value":0},
			{"name":"rapl_window_errors_total","kind":"counter","value":0}
		]}`)
	dirty := write("dirty.json", `{
		"tool": "hswsimd", "experiments": [], "failed": 0, "wall_ms": 42,
		"metrics": [
			{"name":"server_requests_total","kind":"counter","labels":{"endpoint":"run"},"value":12},
			{"name":"server_failures_total","kind":"counter","value":3},
			{"name":"expcache_put_failures_total","kind":"counter","value":0},
			{"name":"rapl_window_errors_total","kind":"counter","value":0}
		]}`)
	wrongTool := write("wrong.json", `{"tool":"experiments","experiments":[],"failed":0,"metrics":[]}`)
	idle := write("idle.json", `{
		"tool": "hswsimd", "experiments": [], "failed": 0,
		"metrics": [
			{"name":"server_failures_total","kind":"counter","value":0},
			{"name":"expcache_put_failures_total","kind":"counter","value":0},
			{"name":"rapl_window_errors_total","kind":"counter","value":0}
		]}`)

	cases := []struct {
		name, path string
		want       int
	}{
		{"clean", clean, 0},
		{"failure counter nonzero", dirty, 1},
		{"wrong tool", wrongTool, 1},
		{"no requests served", idle, 1},
		{"missing file", filepath.Join(dir, "nope.json"), 1},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-check-manifest", tc.path}, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: exit %d (stderr %q), want %d", tc.name, code, stderr.String(), tc.want)
		}
	}
}
