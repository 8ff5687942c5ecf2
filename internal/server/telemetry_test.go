package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hswsim/internal/eprof"
	"hswsim/internal/exp"
	"hswsim/internal/obs"
	"hswsim/internal/pproftest"
	"hswsim/internal/slots"
)

func newTelemetryServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Pool == nil {
		cfg.Pool = slots.New(2)
	}
	if cfg.Log == nil {
		cfg.Log = quiet
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.StartDrain() // stops the sampler goroutine
	})
	return s, ts
}

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	_, ts := newTelemetryServer(t, Config{
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			return []byte("ok\n"), nil
		},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-ID")
	if gen == "" {
		t.Fatal("no X-Request-ID generated")
	}

	req, _ := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(`{"id":"tab3"}`))
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("X-Request-ID = %q, want the client's id echoed", got)
	}

	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); got == "" || got == gen {
		t.Fatalf("second generated id %q not distinct from first %q", got, gen)
	}
}

func TestAccessLogRecordsOutcomeKeyAndTiming(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTelemetryServer(t, Config{
		AccessLog: &logBuf,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			return []byte("rendered\n"), nil
		},
	})

	resp, _ := postRun(t, ts, `{"id":"tab3","scale":0.25}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")

	var line string
	waitFor(t, "access-log line", func() bool {
		for _, l := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(l, "path=/v1/run") {
				line = l
				return true
			}
		}
		return false
	})
	for _, want := range []string{
		"req=" + reqID,
		"method=POST",
		"status=200",
		"outcome=live",
		`key="tab3|`, // the expcache tuple key starts with the id
		"queue_us=",
		"run_ms=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("access log line missing %q: %s", want, line)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func (b *syncBuffer) lock() {
	if b.mu == nil {
		b.mu = make(chan struct{}, 1)
	}
	b.mu <- struct{}{}
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.lock()
	defer func() { <-b.mu }()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.lock()
	defer func() { <-b.mu }()
	return b.buf.String()
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    int64
	event string
	data  string
}

// readSSE parses events off an open SSE stream until n events or EOF.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatalf("read SSE: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.ParseInt(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	return out
}

// TestStreamReplayMatchesMetrics covers the SSE half of the time-series
// satellite: samples stream with monotone ids, each sample carries the
// same metric families GET /metrics exposes, and a reconnect with
// Last-Event-ID replays retained samples byte-identically.
func TestStreamReplayMatchesMetrics(t *testing.T) {
	_, ts := newTelemetryServer(t, Config{
		SampleInterval: 20 * time.Millisecond,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			return []byte("ok\n"), nil
		},
	})

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 3)
	if len(events) < 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	byID := map[int64]sseEvent{}
	for i, ev := range events {
		if ev.event != "metrics" {
			t.Fatalf("event %d type %q", i, ev.event)
		}
		if i > 0 && ev.id <= events[i-1].id {
			t.Fatalf("ids not monotone: %d after %d", ev.id, events[i-1].id)
		}
		var ms []obs.Metric
		if err := json.Unmarshal([]byte(ev.data), &ms); err != nil {
			t.Fatalf("event %d data: %v", i, err)
		}
		byID[ev.id] = ev

		// Family agreement with GET /metrics: every sampled name must
		// be served on /metrics. (Subset, not equality: vector members
		// materialize lazily, so a scrape taken after the sample can
		// legitimately carry new families; values drift between
		// scrapes, so the family set is the stable contract.)
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		promText, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		served := map[string]bool{}
		for _, l := range strings.Split(string(promText), "\n") {
			if f, ok := strings.CutPrefix(l, "# TYPE "); ok {
				served[strings.Fields(f)[0]] = true
			}
		}
		names := map[string]bool{}
		for _, m := range ms {
			if !served[m.Name] {
				t.Fatalf("sampled metric %q not served on /metrics", m.Name)
			}
			names[m.Name] = true
		}
		// Core always-registered families must be in every sample.
		for _, want := range []string{"sim_events_dispatched_total", "server_stream_samples_total"} {
			if !names[want] {
				t.Fatalf("sample missing always-registered metric %q", want)
			}
		}
	}

	// Reconnect with Last-Event-ID = first event: the replay must
	// reproduce the retained overlapping samples byte-identically.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/stream", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(events[0].id, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayed := readSSE(t, bufio.NewReader(resp2.Body), 2)
	for _, ev := range replayed {
		if ev.id <= events[0].id {
			t.Fatalf("replay included id %d ≤ cursor %d", ev.id, events[0].id)
		}
		if orig, ok := byID[ev.id]; ok && orig.data != ev.data {
			t.Fatalf("replayed sample %d differs from original:\n%s\n----\n%s",
				ev.id, ev.data, orig.data)
		}
	}
}

func TestStreamDrainEventOnShutdown(t *testing.T) {
	s, ts := newTelemetryServer(t, Config{
		SampleInterval: time.Hour, // only the primed sample
	})
	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	first := readSSE(t, r, 1)
	if len(first) != 1 || first[0].event != "metrics" {
		t.Fatalf("expected the primed sample first, got %+v", first)
	}
	s.StartDrain()
	rest := readSSE(t, r, 1)
	if len(rest) != 1 || rest[0].event != "drain" {
		t.Fatalf("expected a drain event, got %+v", rest)
	}
}

// TestProfileEndpointRealRun drives GET /v1/profile through a real
// exp.RunLive: the response must be decodable pprof with both sample
// types, nonzero samples, and the requested default view.
func TestProfileEndpointRealRun(t *testing.T) {
	_, ts := newTelemetryServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/profile?id=tab3&scale=0.05&type=vtime")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	p, err := pproftest.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("response is not decodable pprof: %v", err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[0] != eprof.SampleTypeEnergy || p.SampleTypes[1] != eprof.SampleTypeVTime {
		t.Fatalf("sample types = %v", p.SampleTypes)
	}
	if p.DefaultType != eprof.SampleTypeVTime {
		t.Fatalf("default type = %q, want vtime (requested)", p.DefaultType)
	}
	if len(p.Samples) == 0 {
		t.Fatal("profiled run produced zero samples")
	}
	var energy int64
	for _, s := range p.Samples {
		energy += s.Values[0]
	}
	if energy <= 0 {
		t.Fatalf("total profiled energy %d nJ, want > 0", energy)
	}
}

func TestProfileEndpointValidation(t *testing.T) {
	seeds := make(chan uint64, 1)
	s, ts := newTelemetryServer(t, Config{
		MaxScale: 0.5,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			seeds <- o.Seed
			return []byte("ok\n"), nil
		},
	})
	// Each rejected query is otherwise valid, so it fails for the one
	// reason its want text names.
	cases := []struct {
		query string
		code  int
		want  string // body substring of a rejection
		seed  uint64 // Options.Seed of an accepted run
	}{
		{query: "?id=nosuch", code: http.StatusNotFound, want: "unknown experiment id"},
		{query: "?id=tab3&scale=0.25&type=flame", code: http.StatusBadRequest, want: "type must be"},
		{query: "?id=tab3&scale=99", code: http.StatusBadRequest, want: "outside (0, 0.5]"},
		{query: "?id=tab3", code: http.StatusBadRequest, want: "scale 1 outside"}, // the defaulted 1.0 is above the ceiling
		{query: "?id=tab3&scale=0", code: http.StatusBadRequest, want: `scale "0" outside`},
		{query: "?id=tab3&scale=NaN", code: http.StatusBadRequest, want: "scale NaN outside"},
		{query: "?id=tab3&scale=0.25&seed=notanumber", code: http.StatusBadRequest, want: "seed must be"},
		{query: "?id=tab3&scale=0.5", code: http.StatusOK, seed: exp.Defaults().Seed},
		{query: "?id=tab3&scale=0.25&seed=0", code: http.StatusOK, seed: 0},
		{query: "?id=tab3&scale=0.25&seed=7", code: http.StatusOK, seed: 7},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + "/v1/profile" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != tc.code:
			t.Errorf("%s: status %d (%.200q), want %d", tc.query, resp.StatusCode, body, tc.code)
		case tc.code != http.StatusOK && !strings.Contains(string(body), tc.want):
			t.Errorf("%s: body %q, want it to contain %q", tc.query, body, tc.want)
		}
		if resp.StatusCode != http.StatusOK {
			continue
		}
		select {
		case got := <-seeds:
			if tc.code == http.StatusOK && got != tc.seed {
				t.Errorf("%s: ran seed %#x, want %#x", tc.query, got, tc.seed)
			}
		default:
			t.Errorf("%s: status 200 without a run", tc.query)
		}
	}
	s.StartDrain()
	resp, err := http.Get(ts.URL + "/v1/profile?id=tab3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining profile request: status %d, want 503", resp.StatusCode)
	}
}

// TestRecordedRunOutcomes: traced and profiled requests share one
// recorded-run path, and its access-log line names the outcome and the
// tuple key whether the run is served, shed by a full admission queue,
// or cancelled by its client while queued.
func TestRecordedRunOutcomes(t *testing.T) {
	var logBuf syncBuffer
	entered, gate := make(chan struct{}), make(chan struct{})
	_, ts := newTelemetryServer(t, Config{
		Pool:       slots.New(1),
		QueueDepth: 1,
		AccessLog:  &logBuf,
		runLive: func(id string, o exp.Options, csv bool) ([]byte, error) {
			if id == "tab1" {
				close(entered)
				<-gate
			}
			return []byte("ok\n"), nil
		},
	})
	const tab3 = `{"id":"tab3","scale":0.25}`
	if resp, body := postRun(t, ts, tab3, "?trace=timeline"); resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/profile?id=tab3&scale=0.25")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled run: status %d", resp.StatusCode)
	}

	// tab1 holds the only slot; a profile request fills the depth-1
	// queue, so a traced request is shed; then the queued profile
	// request's client gives up.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postRun(t, ts, `{"id":"tab1","scale":0.25}`, "")
	}()
	<-entered
	queueBefore := queueDepth()
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/profile?id=tab3&scale=0.25", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "profile request queued", func() bool { return queueDepth() == queueBefore+1 })
	if resp, body := postRun(t, ts, tab3, "?trace=chrome"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("traced run on a full queue: status %d: %s", resp.StatusCode, body)
	}
	cancel()
	<-queued
	// Only the cancelled wait can leave the queue while tab1 holds the
	// slot.
	waitFor(t, "profile request dequeued", func() bool { return queueDepth() == queueBefore })
	close(gate)
	<-done

	for _, want := range []struct{ req, outcome string }{
		{"path=/v1/run status=200", "traced"},
		{"path=/v1/profile status=200", "profiled"},
		{"path=/v1/run status=429", "shed"},
		{"path=/v1/profile status=503", "cancelled"},
	} {
		var line string
		waitFor(t, want.req+" outcome="+want.outcome+" access-log line", func() bool {
			for _, l := range strings.Split(logBuf.String(), "\n") {
				if strings.Contains(l, want.req) && strings.Contains(l, " outcome="+want.outcome+" ") {
					line = l
					return true
				}
			}
			return false
		})
		if !strings.Contains(line, ` key="tab3|`) {
			t.Errorf("%s access-log line lacks the tuple key: %s", want.outcome, line)
		}
	}
}
