// Package server composes the existing pieces — the experiment
// descriptor table (internal/exp), the process-wide slot scheduler
// (internal/slots), the content-addressed result cache
// (internal/expcache), the metrics registry (internal/obs) and the
// virtual-time span tracer (internal/trace via exp) — into a
// long-lived HTTP+JSON simulation service. cmd/hswsimd is the binary
// around it.
//
// Serving shape, in request order:
//
//  1. Admission gate: a draining server rejects immediately (503); a
//     valid request proceeds.
//  2. Coalescing: requests singleflight on the expcache tuple key, so
//     N identical in-flight requests cost one simulation — the case a
//     fleet-sized experiment that many users ask for at once exists
//     for.
//  3. Cache: the flight leader consults expcache first; a hit replays
//     bytes without touching the scheduler.
//  4. Admission control: a live run acquires a compute slot through a
//     bounded wait queue (slots.Queue) — waits are cancellable by the
//     client, and a queue at depth sheds the request with 429 instead
//     of letting the backlog grow.
//  5. The run itself goes through exp.RunLive on the held slot, so a
//     server run can never bypass or double-acquire the scheduler and
//     its bytes are identical to the `experiments` CLI for the same
//     tuple.
//
// Graceful drain: StartDrain stops admission, Drain waits for in-flight
// requests (bounded by the caller's context) and flushes the obs
// manifest, so an orchestrated SIGTERM loses no running work and leaves
// a machine-readable record of the serving period.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/obs"
	"hswsim/internal/slots"
)

// Config parameterizes a Server. The zero value serves with the
// process-wide slot pool, no cache, a queue depth of 4x the pool and a
// 1.0 scale ceiling.
type Config struct {
	// Cache is the result cache (nil disables caching). The server
	// stores and replays rendered bytes through it exactly as the CLI
	// does, so the two share entries when pointed at one directory.
	Cache exp.Cache
	// Pool is the compute-slot pool live runs draw on (nil =
	// slots.Default(), shared with everything else in the process).
	Pool *slots.Pool
	// QueueDepth bounds how many run requests may wait for a slot at
	// once; beyond it requests are shed with 429 (0 = 4x pool capacity).
	QueueDepth int
	// MaxScale rejects requests asking for more than this effort scale
	// (0 = 1.0, the paper-fidelity ceiling). It is the knob that keeps
	// one client from wedging the service with a pathological request.
	MaxScale float64
	// ManifestPath, when set, is where Drain flushes the obs manifest.
	ManifestPath string
	// Log receives request-level notes (nil = log.Default()).
	Log *log.Logger
	// AccessLog, when set, receives one structured line per request
	// (request id, tuple key, outcome, queue wait, run wall time). Nil
	// disables access logging.
	AccessLog io.Writer

	// runLive executes one experiment on a held slot (test seam;
	// nil = exp.RunLive).
	runLive func(id string, o exp.Options, csv bool) ([]byte, error)
	// beforeRun, when set, is called by each flight leader with the
	// tuple key after the cache miss and before admission (test seam
	// for deterministic coalescing/shedding windows).
	beforeRun func(key string)
}

// Server is the HTTP serving layer. Create with New, mount Handler,
// shut down with StartDrain + Drain.
type Server struct {
	cfg      Config
	pool     *slots.Pool
	queue    *slots.Queue
	flights  flightGroup
	mux      *http.ServeMux
	log      *log.Logger
	draining atomic.Bool
	inflight sync.WaitGroup
	// traceMu serializes recorded runs (exp.Recorder is
	// process-global): normal runs hold it shared, a traced or
	// profiled run holds it exclusively so no concurrent run's
	// platforms leak into another request's capture.
	traceMu sync.RWMutex
	started time.Time

	// Request-id generation: a per-process base (start time) plus a
	// sequence number, so ids are unique within a serving period and
	// sortable within a log.
	ridBase  string
	reqSeq   atomic.Int64
	accessMu sync.Mutex
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	pool := cfg.Pool
	if pool == nil {
		pool = slots.Default()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * pool.Cap()
	}
	if cfg.MaxScale <= 0 {
		cfg.MaxScale = 1.0
	}
	if cfg.runLive == nil {
		cfg.runLive = exp.RunLive
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.Default()
	}
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		queue:   slots.NewQueue(pool, depth),
		log:     lg,
		started: time.Now(),
		ridBase: fmt.Sprintf("%08x", uint32(time.Now().UnixNano())),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/profile", s.handleProfile)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP handler serving the v1 API, wrapped in the
// request-id + access-log middleware.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// runRequest is the POST /v1/run body. Zero Scale and Seed take the
// CLI defaults (1.0, 0x5eed) so a minimal request names the same tuple
// as a flagless `experiments -run <id>`.
type runRequest struct {
	ID    string  `json:"id"`
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	CSV   bool    `json:"csv,omitempty"`

	FleetNodes     int     `json:"fleet_nodes,omitempty"`
	FleetSeed      uint64  `json:"fleet_seed,omitempty"`
	FleetLeakSigma float64 `json:"fleet_leak_sigma,omitempty"`
	FleetCeffSigma float64 `json:"fleet_ceff_sigma,omitempty"`
	FleetVminSigma float64 `json:"fleet_vmin_sigma,omitempty"`
}

// decodeRunRequest reads a POST /v1/run body: one JSON object with no
// unknown fields, followed by nothing but whitespace.
func decodeRunRequest(body io.Reader) (runRequest, error) {
	var rq runRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		return rq, err
	}
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return rq, errors.New("trailing data after the request object")
	}
	return rq, nil
}

// resolve maps a request onto the exp.Options tuple it names, defaults
// filled in, and checks it: the id must name an experiment (404), the
// resolved scale must lie in (0, MaxScale] and the options must pass
// Options.Validate (400). POST /v1/run and GET /v1/profile both resolve
// here, so a defaulted scale meets the same ceiling as an explicit one.
// It also clears rq.CSV for an experiment without a CSV form, whose
// reply is text either way.
func (s *Server) resolve(rq *runRequest) (exp.Options, int, error) {
	d, ok := exp.Lookup(rq.ID)
	if !ok {
		return exp.Options{}, http.StatusNotFound,
			fmt.Errorf("unknown experiment id %q (GET /v1/experiments lists them)", rq.ID)
	}
	rq.CSV = rq.CSV && d.CSV
	o := exp.Defaults()
	if rq.Scale != 0 {
		o.Scale = rq.Scale
	}
	if rq.Seed != 0 {
		o.Seed = rq.Seed
	}
	o.Fleet = exp.FleetOptions{
		Nodes: rq.FleetNodes, Seed: rq.FleetSeed,
		LeakSigma: rq.FleetLeakSigma, CeffSigma: rq.FleetCeffSigma,
		VminSigmaV: rq.FleetVminSigma,
	}
	if !(o.Scale > 0 && o.Scale <= s.cfg.MaxScale) {
		return o, http.StatusBadRequest, fmt.Errorf("scale %g outside (0, %g]", o.Scale, s.cfg.MaxScale)
	}
	if err := o.Validate(); err != nil {
		return o, http.StatusBadRequest, err
	}
	return o, http.StatusOK, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("run").Inc()
	if s.draining.Load() {
		obs.ServerDrainRejects.Inc()
		http.Error(w, "server draining; retry elsewhere", http.StatusServiceUnavailable)
		return
	}
	req, err := decodeRunRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	o, code, err := s.resolve(&req)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	traceMode := r.URL.Query().Get("trace")
	switch traceMode {
	case "", "chrome", "timeline":
	default:
		http.Error(w, `trace must be "chrome" or "timeline"`, http.StatusBadRequest)
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Done()

	if traceMode != "" {
		s.recordedRun(w, r, req, o, true, func(rec *exp.Recorder) error {
			if traceMode == "chrome" {
				w.Header().Set("Content-Type", "application/json")
				return rec.WriteChrome(w)
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			return rec.WriteTimeline(w)
		})
		return
	}

	key := expcache.TupleKey(req.ID, o, req.CSV)
	info := infoFrom(r.Context())
	info.key = key
	res, leader, err := s.flights.do(r.Context(), key, func() runResult {
		return s.execute(r.Context(), req.ID, o, req.CSV, key)
	})
	if err != nil {
		// This follower's client went away while the leader ran; the
		// flight itself continues for everyone else.
		info.outcome = "cancelled"
		http.Error(w, "request cancelled", http.StatusServiceUnavailable)
		return
	}
	if !leader {
		obs.ServerCoalesced.Inc()
	}
	info.annotate(res, leader)
	if res.code != http.StatusOK {
		http.Error(w, res.errMsg, res.code)
		return
	}
	ct := "text/plain; charset=utf-8"
	if req.CSV {
		ct = "text/csv; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Hswsim-Cached", strconv.FormatBool(res.cached))
	w.Header().Set("X-Hswsim-Coalesced", strconv.FormatBool(!leader))
	w.Write(res.body)
}

// execute is the flight leader's body: cache, admission, live run,
// cache store. Its runResult is shared by every coalesced follower.
func (s *Server) execute(ctx context.Context, id string, o exp.Options, csv bool, key string) runResult {
	if s.cfg.Cache != nil {
		if out, ok := s.cfg.Cache.Get(id, o, csv); ok {
			obs.ServerCacheHits.Inc()
			return runResult{body: out, cached: true, code: http.StatusOK}
		}
	}
	if s.cfg.beforeRun != nil {
		s.cfg.beforeRun(key)
	}
	if s.draining.Load() {
		obs.ServerDrainRejects.Inc()
		return runResult{code: http.StatusServiceUnavailable, errMsg: "server draining"}
	}
	res, _ := s.liveRun(ctx, id, o, csv, false, false)
	if res.code == http.StatusOK && s.cfg.Cache != nil {
		if perr := s.cfg.Cache.Put(id, o, csv, res.body); perr != nil {
			obs.CachePutFailures.Inc()
			s.log.Printf("hswsimd: cache put %s failed: %v", id, perr)
		}
	}
	return res
}

// liveRun admits one live run through the bounded admission queue and
// times it. A full queue sheds the run (429), and a request cancelled
// while it waits gets 503. Once admitted, the run holds traceMu: shared
// for a plain run, exclusive when spans or energy arm the recorder, so
// no concurrent run's platforms leak into (or are leaked into by) the
// capture. The run counts in server_inflight_runs and
// server_run_wall_ns; a failed run is counted, logged and answered 500.
// A recorded run returns its recorder, already uninstalled.
func (s *Server) liveRun(ctx context.Context, id string, o exp.Options, csv, spans, energy bool) (runResult, *exp.Recorder) {
	qStart := time.Now()
	if err := s.queue.Acquire(ctx); err != nil {
		if errors.Is(err, slots.ErrSaturated) {
			obs.ServerShed.Inc()
			return runResult{code: http.StatusTooManyRequests, errMsg: "admission queue full; retry with backoff"}, nil
		}
		return runResult{code: http.StatusServiceUnavailable, errMsg: "cancelled while queued for a compute slot"}, nil
	}
	defer s.pool.Release()
	res := runResult{queueNS: time.Since(qStart).Nanoseconds()}

	var rec *exp.Recorder
	if spans || energy {
		s.traceMu.Lock()
		defer s.traceMu.Unlock()
		rec = exp.EnableRecorder(spans, energy)
		defer exp.DisableRecorder()
	} else {
		s.traceMu.RLock()
		defer s.traceMu.RUnlock()
	}
	obs.ServerInflight.Add(1)
	start := time.Now()
	out, err := s.cfg.runLive(id, o, csv)
	res.runNS = time.Since(start).Nanoseconds()
	obs.ServerRunWall.Observe(res.runNS)
	obs.ServerInflight.Add(-1)
	if err != nil {
		obs.ServerFailures.Inc()
		s.log.Printf("hswsimd: run %s failed: %v", id, err)
		res.code, res.errMsg = http.StatusInternalServerError, err.Error()
		return res, nil
	}
	res.code, res.body = http.StatusOK, out
	return res, rec
}

// recordedRun serves a forced-live run under the process-global
// recorder: the span trace for POST /v1/run?trace= (traced), the energy
// profile for GET /v1/profile otherwise. It never touches the cache or
// coalesces: a capture is only valid for a run that was actually lived
// through. export sets the response headers and streams the capture as
// the body, in place of the rendered table. The export runs after the
// slot and traceMu are released, so a slow reader holds up no other run.
func (s *Server) recordedRun(w http.ResponseWriter, r *http.Request, req runRequest, o exp.Options, traced bool,
	export func(*exp.Recorder) error) {
	info := infoFrom(r.Context())
	info.key = expcache.TupleKey(req.ID, o, req.CSV)
	res, rec := s.liveRun(r.Context(), req.ID, o, req.CSV, traced, !traced)
	info.queueNS, info.runNS = res.queueNS, res.runNS
	switch {
	case res.code == http.StatusTooManyRequests:
		info.outcome = "shed"
	case res.code == http.StatusServiceUnavailable:
		info.outcome = "cancelled"
	case traced:
		info.outcome = "traced"
	default:
		info.outcome = "profiled"
	}
	if res.code != http.StatusOK {
		http.Error(w, res.errMsg, res.code)
		return
	}
	if err := export(rec); err != nil {
		s.log.Printf("hswsimd: %s run %s: export failed mid-stream: %v", info.outcome, req.ID, err)
	}
}

// experimentInfo is one GET /v1/experiments row.
type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("experiments").Inc()
	list := make([]experimentInfo, 0, len(exp.Suite()))
	for _, d := range exp.Suite() {
		list = append(list, experimentInfo{ID: d.ID, Title: d.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(list); err != nil {
		s.log.Printf("hswsimd: experiments list write failed: %v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("metrics").Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, obs.Snapshot()); err != nil {
		s.log.Printf("hswsimd: metrics write failed: %v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("healthz").Inc()
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// StartDrain stops admission: /healthz flips to 503 (load balancers
// stop routing here) and new run requests are rejected. In-flight runs
// continue; call Drain to wait for them.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain completes a graceful shutdown: admission stops (if it had
// not already), in-flight run requests finish — bounded by ctx — and
// the obs manifest flushes to Config.ManifestPath. A deadline overrun
// still flushes the manifest (recording whatever was still in flight)
// before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = fmt.Errorf("drain deadline exceeded with runs in flight: %w", ctx.Err())
	}
	if err := s.FlushManifest(); err != nil && derr == nil {
		derr = err
	}
	return derr
}

// FlushManifest writes the obs manifest (tool identity, serving wall
// time, full metrics snapshot) to Config.ManifestPath; a server without
// one configured flushes nowhere and returns nil.
func (s *Server) FlushManifest() error {
	if s.cfg.ManifestPath == "" {
		return nil
	}
	m := &obs.Manifest{
		Tool: "hswsimd",
		Args: map[string]string{
			"queue_depth": strconv.Itoa(s.queue.Depth()),
			"slots":       strconv.Itoa(s.pool.Cap()),
			"max_scale":   fmt.Sprintf("%g", s.cfg.MaxScale),
			"cache":       strconv.FormatBool(s.cfg.Cache != nil),
		},
		Failed:  int(obs.ServerFailures.Value()),
		WallMS:  time.Since(s.started).Milliseconds(),
		Metrics: obs.Snapshot(),
	}
	f, err := os.Create(s.cfg.ManifestPath)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}
