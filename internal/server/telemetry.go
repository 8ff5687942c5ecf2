package server

// Live-telemetry surface: the request-id + access-log middleware and
// the on-demand energy profile behind GET /v1/profile. Everything here
// is out-of-band of experiment output — the same zero-perturbation rule
// internal/obs lives by.

import (
	"context"
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
// log.
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

// handleProfile serves GET /v1/profile?id=<exp>&type=energy|vtime
// [&scale=&seed=]: a recorded run under the energy profiler, returned
// as gzipped pprof protobuf. The query resolves like a POST /v1/run
// body naming the same id, scale and seed, except that a query can
// tell a present scale=0 from an absent one and rejects it.
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
	if v := q.Get("seed"); v != "" {
		if req.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, "seed must be an unsigned integer", http.StatusBadRequest)
			return
		}
	}
	o, code, err := s.resolve(&req)
	if err != nil {
		http.Error(w, err.Error(), code)
		return
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
