package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hswsim/internal/eprof"
	"hswsim/internal/exp"
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
	t.Cleanup(ts.Close)
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
		{query: "?id=tab3&scale=0.25&seed=0", code: http.StatusOK, seed: exp.Defaults().Seed},
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
