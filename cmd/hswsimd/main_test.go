package main

import (
	"bytes"
	"net"
	"net/http"
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

// TestMaxScaleMustBeFiniteAndPositive: a numeric flag outside its
// range exits 2 with the usage text before the server listens. That is
// a -max-scale that is NaN, infinite or not above 0, a negative
// -queue-depth, and a -drain-timeout not above 0. Unchecked, the first
// two serve with a silent default, and the last fails every shutdown
// with runs reported in flight.
func TestMaxScaleMustBeFiniteAndPositive(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"max-scale", "NaN"}, {"max-scale", "+Inf"}, {"max-scale", "0"}, {"max-scale", "-3"},
		{"queue-depth", "-5"},
		{"drain-timeout", "0s"}, {"drain-timeout", "-1s"},
	} {
		arg := "-" + tc.flag + "=" + tc.value
		var stdout, stderr bytes.Buffer
		code := make(chan int, 1)
		go func() { code <- run([]string{"-addr", "127.0.0.1:0", arg}, &stdout, &stderr) }()
		select {
		case c := <-code:
			if c != 2 {
				t.Errorf("%s: exit %d, want 2", arg, c)
			}
			if !strings.Contains(stderr.String(), "-"+tc.flag+" "+tc.value+": want") || !strings.Contains(stderr.String(), "-addr") {
				t.Errorf("%s: stderr lacks the error and usage text: %q", arg, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still serving after 10 s, want exit 2 before listening", arg)
		}
	}
}

// TestHeaderLimits serves newHTTPServer on a loopback listener: a
// request with a 100 KiB header is answered 431 (Go's 1 MiB default
// would admit it), a small request is served, and the server sets a
// header read timeout, so a client that never finishes its headers
// cannot hold a connection open.
func TestHeaderLimits(t *testing.T) {
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	for _, tc := range []struct {
		header int
		want   int
	}{{16, http.StatusOK}, {100 << 10, http.StatusRequestHeaderFieldsTooLarge}} {
		req, err := http.NewRequest("GET", "http://"+ln.Addr().String()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Padding", strings.Repeat("a", tc.header))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%d-byte header: %v", tc.header, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte header: status %d, want %d", tc.header, resp.StatusCode, tc.want)
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
