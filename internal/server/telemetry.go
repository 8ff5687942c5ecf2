package server

// Live-telemetry surface: the request-id + access-log middleware, the
// sampled metrics time-series behind GET /v1/stream (SSE), and the
// on-demand energy profile behind GET /v1/profile. Everything here is
// out-of-band of experiment output — the same zero-perturbation rule
// internal/obs lives by.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/obs"
)

// reqInfo is the per-request access-log record, created by the
// middleware and annotated by handlers as the request's fate becomes
// known (tuple key, cache/coalesce/shed outcome, queue wait, run wall).
type reqInfo struct {
	id      string
	key     string
	outcome string
	queueNS int64
	runNS   int64
}

// annotate fills the outcome fields from a completed run flight.
func (info *reqInfo) annotate(res runResult, leader bool) {
	info.queueNS = res.queueNS
	info.runNS = res.runNS
	switch {
	case res.cached:
		info.outcome = "cache-hit"
	case !leader:
		info.outcome = "coalesced"
	case res.code == http.StatusTooManyRequests:
		info.outcome = "shed"
	case res.code == http.StatusServiceUnavailable:
		info.outcome = "drain-reject"
	case res.code == http.StatusOK:
		info.outcome = "live"
	default:
		info.outcome = "error"
	}
}

type reqInfoKey struct{}

// infoFrom returns the request's access-log record; handlers invoked
// without the middleware (direct mux tests) get a discardable one.
func infoFrom(ctx context.Context) *reqInfo {
	if info, ok := ctx.Value(reqInfoKey{}).(*reqInfo); ok {
		return info
	}
	return &reqInfo{}
}

// statusRecorder captures the status code and body size for the access
// log while passing Flush through so SSE streaming keeps working.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += n
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the API mux: every response carries an X-Request-ID
// (echoed from the client if it sent one, generated otherwise), and —
// when Config.AccessLog is set — every completed request appends one
// structured logfmt line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: r.Header.Get("X-Request-ID")}
		if info.id == "" {
			info.id = fmt.Sprintf("%s-%06d", s.ridBase, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", info.id)
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info)))
		if s.cfg.AccessLog == nil {
			return
		}
		line := fmt.Sprintf("t=%s req=%s method=%s path=%s status=%d bytes=%d wall_ms=%d",
			start.UTC().Format(time.RFC3339), info.id, r.Method, r.URL.Path,
			sr.code, sr.bytes, time.Since(start).Milliseconds())
		if info.outcome != "" {
			line += " outcome=" + info.outcome
		}
		if info.key != "" {
			// Tuple keys embed the rendered options struct (spaces,
			// commas), so they are quoted to keep the line splittable.
			line += " key=" + strconv.Quote(info.key)
		}
		if info.queueNS > 0 || info.runNS > 0 {
			line += fmt.Sprintf(" queue_us=%d run_ms=%d",
				info.queueNS/1e3, info.runNS/1e6)
		}
		s.accessMu.Lock()
		fmt.Fprintln(s.cfg.AccessLog, line)
		s.accessMu.Unlock()
	})
}

// sampler appends a registry snapshot to the time-series ring every
// interval until the drain broadcast.
func (s *Server) sampler(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.drainCh:
			return
		case <-t.C:
			s.series.Add(obs.Snapshot())
			obs.ServerStreamSamples.Inc()
		}
	}
}

// handleStream serves the sampled metrics time-series as Server-Sent
// Events: one `metrics` event per sample, the monotone sample index as
// the SSE event id. A reconnecting client sends Last-Event-ID (or
// ?after=N) and replays every sample still in the ring past that
// point, then follows live. The stream ends with a `drain` event when
// the server shuts down, so clients distinguish drain from a drop.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("stream").Inc()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.ParseInt(v, 10, 64)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	obs.ServerStreamClients.Add(1)
	defer obs.ServerStreamClients.Add(-1)
	for {
		for _, sm := range s.series.Since(after) {
			data, err := json.Marshal(sm.Metrics)
			if err != nil {
				s.log.Printf("hswsimd: stream sample %d marshal failed: %v", sm.Index, err)
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: metrics\ndata: %s\n\n", sm.Index, data); err != nil {
				return // client gone
			}
			after = sm.Index
		}
		fl.Flush()
		wake := s.series.Wait()
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			fmt.Fprintf(w, "event: drain\ndata: {}\n\n")
			fl.Flush()
			return
		case <-wake:
		}
	}
}

// handleProfile serves GET /v1/profile?id=<exp>&type=energy|vtime
// [&scale=&seed=]: a recorded run under the energy profiler, returned
// as gzipped pprof protobuf. The query resolves like a POST /v1/run
// body naming the same id, scale and seed, except that a query can
// tell a present 0 from an absent field: scale=0 is rejected, and
// seed=0 is passed through, as the CLI's -seed 0 is.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	obs.ServerRequests.With("profile").Inc()
	if s.draining.Load() {
		obs.ServerDrainRejects.Inc()
		http.Error(w, "server draining; retry elsewhere", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	req := runRequest{ID: q.Get("id")}
	var err error
	if v := q.Get("scale"); v != "" {
		if req.Scale, err = strconv.ParseFloat(v, 64); err != nil || req.Scale <= 0 {
			http.Error(w, fmt.Sprintf("scale %q outside (0, %g]", v, s.cfg.MaxScale), http.StatusBadRequest)
			return
		}
	}
	seed := q.Get("seed")
	if seed != "" {
		if req.Seed, err = strconv.ParseUint(seed, 10, 64); err != nil {
			http.Error(w, "seed must be an unsigned integer", http.StatusBadRequest)
			return
		}
	}
	o, code, err := s.resolve(req)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	if seed != "" {
		o.Seed = req.Seed
	}
	var defaultType string
	switch q.Get("type") {
	case "", "energy":
		defaultType = exp.SampleTypeEnergy
	case "vtime":
		defaultType = exp.SampleTypeVTime
	default:
		http.Error(w, `type must be "energy" or "vtime"`, http.StatusBadRequest)
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Done()
	s.recordedRun(w, r, req, o, false, func(rec *exp.Recorder) error {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", req.ID+".eprof.pb.gz"))
		return rec.WritePprof(w, defaultType)
	})
}
