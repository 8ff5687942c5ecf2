package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/obs"
	"hswsim/internal/slots"
)

// quiet suppresses request-level logging in tests.
var quiet = log.New(io.Discard, "", 0)

// postRun issues a POST /v1/run and returns the response.
func postRun(t *testing.T, ts *httptest.Server, body string, query string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// queueDepth reads the sched_queue_depth gauge: how many requests wait
// for a slot.
func queueDepth() int64 {
	for _, m := range obs.Snapshot() {
		if m.Name == "sched_queue_depth" {
			return m.Value
		}
	}
	return 0
}

// TestCoalescingOneLiveRun is the coalescing contract: N concurrent
// identical requests perform exactly one live simulation; the other
// N-1 share its bytes and are counted in server_coalesced_total.
func TestCoalescingOneLiveRun(t *testing.T) {
	const clients = 8
	var runs atomic.Int64
	release := make(chan struct{})
	s := New(Config{
		Pool: slots.New(2),
		Log:  quiet,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			runs.Add(1)
			<-release
			return []byte("rendered " + id + "\n"), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	coalescedBefore := obs.ServerCoalesced.Value()
	var wg sync.WaitGroup
	codes := make([]int, clients)
	bodies := make([][]byte, clients)
	headers := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postRun(t, ts, `{"id":"tab3","scale":0.25}`, "")
			codes[i] = resp.StatusCode
			bodies[i] = b
			headers[i] = resp.Header.Get("X-Hswsim-Coalesced")
		}(i)
	}

	// One leader is live in runLive; every other request is blocked on
	// its flight. Only then does the run complete.
	waitFor(t, "leader in runLive", func() bool { return runs.Load() == 1 })
	waitFor(t, "followers coalesced", func() bool { return s.flights.waiters.Load() == clients-1 })
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("live runs = %d, want exactly 1", got)
	}
	if got := obs.ServerCoalesced.Value() - coalescedBefore; got != clients-1 {
		t.Errorf("server_coalesced_total delta = %d, want %d", got, clients-1)
	}
	leaders := 0
	for i := 0; i < clients; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("client %d: status %d", i, codes[i])
		}
		if string(bodies[i]) != "rendered tab3\n" {
			t.Errorf("client %d: body %q", i, bodies[i])
		}
		if headers[i] == "false" {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("X-Hswsim-Coalesced reports %d leaders, want 1", leaders)
	}
}

// TestAdmissionShedsWith429 pins load shedding: with one slot occupied
// and the depth-1 queue holding one waiter, a third distinct request is
// rejected 429 immediately — and the queued requests still complete.
func TestAdmissionShedsWith429(t *testing.T) {
	gates := map[string]chan struct{}{
		"tab1": make(chan struct{}),
		"tab2": make(chan struct{}),
		"tab3": make(chan struct{}),
	}
	var entered sync.Map
	s := New(Config{
		Pool:       slots.New(1),
		QueueDepth: 1,
		Log:        quiet,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			entered.Store(id, true)
			<-gates[id]
			return []byte(id + " done\n"), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	shedBefore := obs.ServerShed.Value()
	queueBefore := queueDepth()
	type result struct {
		code int
		body string
	}
	results := make(chan result, 3)
	do := func(id string) {
		resp, b := postRun(t, ts, fmt.Sprintf(`{"id":%q,"scale":0.25}`, id), "")
		results <- result{resp.StatusCode, string(b)}
	}

	// tab1 occupies the only slot.
	go do("tab1")
	waitFor(t, "tab1 holding the slot", func() bool { _, ok := entered.Load("tab1"); return ok })
	// tab2 is admitted to the queue (depth 1: now full).
	go do("tab2")
	waitFor(t, "tab2 queued", func() bool { return queueDepth() == queueBefore+1 })
	// tab3 must be shed, without waiting.
	resp, body := postRun(t, ts, `{"id":"tab3","scale":0.25}`, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d body %q, want 429", resp.StatusCode, body)
	}
	if got := obs.ServerShed.Value() - shedBefore; got != 1 {
		t.Errorf("server_shed_total delta = %d, want 1", got)
	}

	// The admitted requests complete normally once gated work finishes.
	close(gates["tab1"])
	waitFor(t, "tab2 running", func() bool { _, ok := entered.Load("tab2"); return ok })
	close(gates["tab2"])
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("admitted request finished with %d (%s)", r.code, r.body)
		}
	}
}

// TestGracefulDrain pins the shutdown contract: draining rejects new
// work, completes the in-flight run with its full body, and flushes a
// manifest with zero failures.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	s := New(Config{
		Pool:         slots.New(2),
		ManifestPath: manifest,
		Log:          quiet,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			entered.Done()
			<-release
			return []byte("long table\n"), nil
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, b := postRun(t, ts, `{"id":"tab4","scale":0.25}`, "")
		inflight <- result{resp.StatusCode, string(b)}
	}()
	entered.Wait()

	s.StartDrain()

	// New admissions are rejected while draining.
	resp, _ := postRun(t, ts, `{"id":"tab5","scale":0.25}`, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run during drain: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", hresp.StatusCode)
	}

	// The in-flight run completes and Drain returns once it has.
	close(release)
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	r := <-inflight
	if r.code != http.StatusOK || r.body != "long table\n" {
		t.Errorf("in-flight run during drain: %d %q, want 200 with full body", r.code, r.body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not flushed: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.Tool != "hswsimd" {
		t.Errorf("manifest tool = %q", m.Tool)
	}
	if m.Failed != 0 {
		t.Errorf("manifest records %d failures on a clean run", m.Failed)
	}
	if len(m.Metrics) == 0 {
		t.Error("manifest carries no metrics snapshot")
	}
}

// TestNewStartsNoGoroutine: building a server starts nothing that runs
// on its own, so a server that is never drained leaks nothing. Sixteen
// servers that each started a goroutine would raise the count by at
// least 16.
func TestNewStartsNoGoroutine(t *testing.T) {
	const servers = 16
	before := runtime.NumGoroutine()
	for range servers {
		New(Config{Pool: slots.New(1), Log: quiet})
	}
	if rise := runtime.NumGoroutine() - before; rise >= servers {
		t.Errorf("%d undrained servers raised the goroutine count by %d, want fewer than %d", servers, rise, servers)
	}
}

// TestRunBytesIdenticalToCLI is the fidelity gate: the /v1/run body
// must be byte-identical to what `experiments -run <id>` renders for
// the same tuple (the CLI emits exactly RunSuite's output bytes for
// each experiment between its banner lines).
func TestRunBytesIdenticalToCLI(t *testing.T) {
	o := exp.Options{Scale: 0.05, Seed: 0x5eed}
	for _, tc := range []struct {
		id  string
		csv bool
	}{{"tab1", false}, {"tab1", true}, {"fig1", false}} {
		var want []byte
		exp.RunSuite([]string{tc.id}, o, tc.csv, nil, func(r exp.SuiteResult) {
			if r.Err != nil {
				t.Fatalf("CLI-path run %s: %v", tc.id, r.Err)
			}
			want = r.Output
		})

		s := New(Config{Pool: slots.New(2), Log: quiet})
		ts := httptest.NewServer(s.Handler())
		body := fmt.Sprintf(`{"id":%q,"scale":0.05,"csv":%t}`, tc.id, tc.csv)
		resp, got := postRun(t, ts, body, "")
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s csv=%t: status %d: %s", tc.id, tc.csv, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s csv=%t: server body (%d B) != CLI bytes (%d B)", tc.id, tc.csv, len(got), len(want))
		}
	}
}

// TestCSVContentType: a CSV request is served as text/csv only by an
// experiment with a CSV form; the others reply with their text figure,
// labelled text/plain, under the same key as a plain request.
func TestCSVContentType(t *testing.T) {
	s := New(Config{Pool: slots.New(2), Log: quiet})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ id, want string }{
		{"tab1", "text/csv; charset=utf-8"},
		{"fig1", "text/plain; charset=utf-8"},
	} {
		resp, body := postRun(t, ts, fmt.Sprintf(`{"id":%q,"scale":0.05,"csv":true}`, tc.id), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.id, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.want {
			t.Errorf("%s csv=true: Content-Type %q, want %q", tc.id, got, tc.want)
		}
	}
}

// TestServerSharesCacheWithCLI: a tuple stored by the CLI path replays
// from the server (and vice versa) through one expcache directory.
func TestServerSharesCacheWithCLI(t *testing.T) {
	dir := t.TempDir()
	cache, err := expcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := exp.Options{Scale: 0.05, Seed: 0x5eed}
	var cliOut []byte
	exp.RunSuite([]string{"tab1"}, o, false, cache, func(r exp.SuiteResult) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		cliOut = r.Output
	})

	var runs atomic.Int64
	s := New(Config{
		Pool:  slots.New(2),
		Cache: cache,
		Log:   quiet,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			runs.Add(1)
			return exp.RunLive(id, o, csv)
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, got := postRun(t, ts, `{"id":"tab1","scale":0.05}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Hswsim-Cached") != "true" {
		t.Error("CLI-stored entry not served as a cache hit")
	}
	if runs.Load() != 0 {
		t.Errorf("cache hit still ran %d live simulations", runs.Load())
	}
	if !bytes.Equal(got, cliOut) {
		t.Error("cached server body differs from CLI bytes")
	}
}

// TestConcurrentLoadByteIdentical is the acceptance load test: 64
// concurrent clients across 4 distinct tuples, every response
// byte-identical to the CLI bytes for its tuple, coalescing observed,
// and every live run admitted through the slot scheduler.
func TestConcurrentLoadByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("64-client load test")
	}
	type tuple struct {
		body string
		id   string
		csv  bool
		o    exp.Options
	}
	tuples := []tuple{
		{`{"id":"tab1","scale":0.05}`, "tab1", false, exp.Options{Scale: 0.05, Seed: 0x5eed}},
		{`{"id":"tab1","scale":0.05,"csv":true}`, "tab1", true, exp.Options{Scale: 0.05, Seed: 0x5eed}},
		{`{"id":"fig1","scale":0.05}`, "fig1", false, exp.Options{Scale: 0.05, Seed: 0x5eed}},
		{`{"id":"tab2","scale":0.05,"seed":7}`, "tab2", false, exp.Options{Scale: 0.05, Seed: 7}},
	}
	want := map[int][]byte{}
	for i, tc := range tuples {
		exp.RunSuite([]string{tc.id}, tc.o, tc.csv, nil, func(r exp.SuiteResult) {
			if r.Err != nil {
				t.Fatalf("reference run %s: %v", tc.id, r.Err)
			}
			want[i] = r.Output
		})
	}

	const clients = 64
	leaders := int64(len(tuples))
	// Gate every flight leader until every other client has either
	// become a leader itself or coalesced onto one — from then on
	// coalescing is guaranteed, not probabilistic. One gate serves all
	// leaders: once the first run completes its followers leave, so a
	// leader polling the count after that would never see it full.
	gate := make(chan struct{})
	var open sync.Once
	var s *Server
	s = New(Config{
		Log: quiet,
		beforeRun: func(key string) {
			deadline := time.Now().Add(10 * time.Second)
			for {
				if s.flights.waiters.Load() >= clients-leaders {
					open.Do(func() { close(gate) })
				}
				select {
				case <-gate:
					return
				case <-time.After(time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Errorf("leader of %s: %d clients coalesced after 10 s, want %d", key, s.flights.waiters.Load(), clients-leaders)
					return
				}
			}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	coalescedBefore := obs.ServerCoalesced.Value()
	acquiresBefore := obs.SchedSlotAcquires.Value()
	var wg sync.WaitGroup
	errs := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tc := tuples[i%len(tuples)]
			resp, got := postRun(t, ts, tc.body, "")
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Sprintf("status %d: %s", resp.StatusCode, got)
				return
			}
			if !bytes.Equal(got, want[i%len(tuples)]) {
				errs[i] = fmt.Sprintf("tuple %d: body diverges from CLI bytes (%d vs %d B)",
					i%len(tuples), len(got), len(want[i%len(tuples)]))
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("client %d: %s", i, e)
		}
	}
	if got := obs.ServerCoalesced.Value() - coalescedBefore; got != clients-leaders {
		t.Errorf("server_coalesced_total delta = %d, want %d", got, clients-leaders)
	}
	if got := obs.SchedSlotAcquires.Value() - acquiresBefore; got < leaders {
		t.Errorf("sched_slot_acquires_total delta = %d: a live run bypassed the scheduler (want >= %d)", got, leaders)
	}
}

func TestExperimentsListAndMetrics(t *testing.T) {
	s := New(Config{Pool: slots.New(1), Log: quiet})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var list []experimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("experiments list not JSON: %v", err)
	}
	resp.Body.Close()
	if len(list) != len(exp.Suite()) {
		t.Errorf("list has %d experiments, suite has %d", len(list), len(exp.Suite()))
	}
	ids := map[string]bool{}
	for _, e := range list {
		ids[e.ID] = true
		if e.Title == "" {
			t.Errorf("experiment %s listed without a title", e.ID)
		}
	}
	for _, id := range []string{"tab1", "fig8", "fleet"} {
		if !ids[id] {
			t.Errorf("experiment %s missing from /v1/experiments", id)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{"server_requests_total", "server_coalesced_total", "sched_slots"} {
		if !strings.Contains(string(mb), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// runRequestCases are POST /v1/run bodies against a server with
// MaxScale 0.5, and the status each must get; FuzzRunRequest seeds its
// corpus with them.
var runRequestCases = []struct {
	name, body, query string
	want              int
}{
	{"unknown id", `{"id":"tab99"}`, "", http.StatusNotFound},
	{"bad json", `{`, "", http.StatusBadRequest},
	{"unknown field", `{"id":"tab1","bogus":1}`, "", http.StatusBadRequest},
	{"scale above ceiling", `{"id":"tab1","scale":0.9}`, "", http.StatusBadRequest},
	{"omitted scale defaults above ceiling", `{"id":"tab1"}`, "", http.StatusBadRequest},
	{"negative scale", `{"id":"tab1","scale":-1}`, "", http.StatusBadRequest},
	{"bad trace mode", `{"id":"tab1","scale":0.05}`, "?trace=perf", http.StatusBadRequest},
	{"fleet nodes above cap", `{"id":"fleet","scale":0.05,"fleet_nodes":50000000}`, "", http.StatusBadRequest},
	{"negative fleet nodes", `{"id":"fleet","scale":0.05,"fleet_nodes":-1}`, "", http.StatusBadRequest},
	{"leak sigma above 1", `{"id":"fleet","scale":0.05,"fleet_leak_sigma":2}`, "", http.StatusBadRequest},
	{"vmin sigma above 1", `{"id":"fleet","scale":0.05,"fleet_vmin_sigma":1e300}`, "", http.StatusBadRequest},
	{"trailing garbage", `{"id":"tab1","scale":0.5}garbage`, "", http.StatusBadRequest},
	{"second object", `{"id":"tab1","scale":0.5} {"id":"fleet","scale":99}`, "", http.StatusBadRequest},
	{"scale at ceiling", `{"id":"tab1","scale":0.5}`, "", http.StatusOK},
	{"trailing newline", "{\"id\":\"tab1\",\"scale\":0.5}\n", "", http.StatusOK},
}

func TestRunRequestValidation(t *testing.T) {
	s := New(Config{Pool: slots.New(1), Log: quiet, MaxScale: 0.5})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range runRequestCases {
		resp, body := postRun(t, ts, tc.body, tc.query)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	// GET on a POST route is a method error, not a handler panic.
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

// FuzzRunRequest feeds hostile POST /v1/run bodies through the
// handler's decode and resolve steps. Neither may panic, every body
// decode accepts must be exactly one JSON value, and every request they
// accept must name a known experiment with a scale in (0, MaxScale] and
// options that pass Options.Validate.
func FuzzRunRequest(f *testing.F) {
	for _, tc := range runRequestCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"id":"fleet","scale":0.25,"seed":7,"fleet_nodes":16,"fleet_ceff_sigma":-1}`))
	s := &Server{cfg: Config{MaxScale: 0.5}}
	f.Fuzz(func(t *testing.T, body []byte) {
		rq, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("%q accepted but is not one JSON value", body)
		}
		o, code, err := s.resolve(&rq)
		if err != nil {
			if code != http.StatusNotFound && code != http.StatusBadRequest {
				t.Fatalf("%q rejected with status %d: %v", body, code, err)
			}
			return
		}
		if _, ok := exp.Lookup(rq.ID); !ok {
			t.Fatalf("%q accepted with unknown id %q", body, rq.ID)
		}
		if !(o.Scale > 0 && o.Scale <= s.cfg.MaxScale) {
			t.Fatalf("%q accepted with scale %g outside (0, %g]", body, o.Scale, s.cfg.MaxScale)
		}
		if verr := o.Validate(); verr != nil {
			t.Fatalf("%q accepted but Validate fails: %v", body, verr)
		}
		if d, _ := exp.Lookup(rq.ID); rq.CSV && !d.CSV {
			t.Fatalf("%q accepted as CSV, but %s has no CSV form", body, rq.ID)
		}
	})
}

// TestTracedRun exercises ?trace=: the response streams the span-trace
// export of a live run (tab2 builds a real platform, so the timeline is
// non-empty), and a chrome export parses as JSON.
func TestTracedRun(t *testing.T) {
	s := New(Config{Pool: slots.New(2), Log: quiet})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRun(t, ts, `{"id":"tab2","scale":0.05}`, "?trace=timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline trace: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "tab2#0") {
		t.Errorf("timeline export lacks the traced platform section: %q", truncate(body))
	}

	resp, body = postRun(t, ts, `{"id":"tab2","scale":0.05}`, "?trace=chrome")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: status %d: %s", resp.StatusCode, body)
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Errorf("chrome trace export is not valid JSON: %v", err)
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}
