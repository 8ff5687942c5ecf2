// Command hswsimd is the long-lived simulation server: the experiment
// suite behind an HTTP+JSON API, built for heavy concurrent traffic.
//
// Usage:
//
//	hswsimd                        # serve on 127.0.0.1:7077
//	hswsimd -addr :8080 -queue-depth 64 -report run.json
//	hswsimd -smoke http://127.0.0.1:7077      # client self-test
//	hswsimd -check-manifest run.json          # validate a drain manifest
//
// Endpoints:
//
//	POST /v1/run          {"id":"tab3","scale":0.25,"seed":24301,"csv":false}
//	                      → the rendered table, byte-identical to
//	                      `experiments -run tab3` for the same tuple.
//	                      ?trace=chrome|timeline streams the run's
//	                      virtual-time span trace instead.
//	GET  /v1/profile      ?id=tab3&type=energy|vtime → a forced-live
//	                      run's virtual-time energy profile as gzipped
//	                      pprof protobuf (go tool pprof / Speedscope).
//	GET  /v1/stream       → sampled metrics time-series as Server-Sent
//	                      Events (Last-Event-ID resumes the stream).
//	GET  /v1/experiments  → the experiment catalog (id + title).
//	GET  /metrics         → Prometheus text from the obs registry.
//	GET  /healthz         → 200 serving / 503 draining.
//
// Identical in-flight requests coalesce onto one simulation; completed
// results are cached in the same on-disk result cache the CLI uses;
// live runs are admitted through a bounded wait queue on the shared
// compute-slot pool, shedding load with 429 past the depth limit.
// Every /v1 response carries an X-Request-ID (client-provided or
// generated), and -access-log writes one structured line per request.
// -debug-addr opens a second listener with net/http/pprof — kept off
// the serving address so production traffic never exposes it.
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight runs
// finish (bounded by -drain-timeout), and the obs manifest flushes to
// -report. docs/SERVER.md is the full API and semantics reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hswsim/internal/expcache"
	"hswsim/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the daemon behind a testable surface; flag parsing and all
// output are parameterized so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hswsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address (host:port; port 0 binds a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (automation hook)")
	cacheDir := fs.String("cache-dir", defaultCacheDir(), "result cache directory, shared with the experiments CLI (empty disables caching)")
	noCache := fs.Bool("no-cache", false, "serve without the result cache: every uncoalesced request runs live")
	queueDepth := fs.Int("queue-depth", 0, "max run requests waiting for a compute slot before 429s (0 = 4x slots)")
	maxScale := fs.Float64("max-scale", 1.0, "reject run requests above this effort scale")
	drainTimeout := fs.Duration("drain-timeout", 60*time.Second, "graceful-drain deadline after SIGINT/SIGTERM")
	reportPath := fs.String("report", "", "flush the obs manifest JSON here on shutdown")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	accessLog := fs.String("access-log", "", "append per-request access-log lines to this file (\"-\" = stderr)")
	sampleInterval := fs.Duration("sample-interval", time.Second, "metrics time-series sampling period behind /v1/stream")
	smoke := fs.String("smoke", "", "run the smoke client against a serving hswsimd at this base URL, then exit")
	checkManifest := fs.String("check-manifest", "", "validate a drain manifest (clean run, zero failure counters), then exit")
	if err := fs.Parse(args); err != nil {
		// -h/-help is a successful outcome (the usage text was the
		// request), not a flag error.
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		fs.Usage()
		return 2
	}
	// Range-check the numeric flags before anything listens: server.New
	// silently maps a zero or negative -max-scale, -queue-depth or
	// -sample-interval to its default, and a drain deadline at or below
	// 0 has passed before the drain starts. The negated -max-scale test
	// also rejects NaN and +Inf.
	switch {
	case !(*maxScale > 0 && *maxScale <= math.MaxFloat64):
		return usage("-max-scale %g: want a finite value > 0", *maxScale)
	case *queueDepth < 0:
		return usage("-queue-depth %d: want a value >= 0 (0 = 4x slots)", *queueDepth)
	case *sampleInterval <= 0:
		return usage("-sample-interval %s: want a duration > 0", *sampleInterval)
	case *drainTimeout <= 0:
		return usage("-drain-timeout %s: want a duration > 0", *drainTimeout)
	}

	if *smoke != "" {
		return runSmoke(*smoke, stderr)
	}
	if *checkManifest != "" {
		return runCheckManifest(*checkManifest, stderr)
	}

	cfg := server.Config{
		QueueDepth:     *queueDepth,
		MaxScale:       *maxScale,
		ManifestPath:   *reportPath,
		SampleInterval: *sampleInterval,
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(stderr, "hswsimd: access-log: %v\n", err)
			return 1
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	if !*noCache && *cacheDir != "" {
		c, err := expcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "warning: result cache disabled: %v\n", err)
		} else {
			cfg.Cache = c
		}
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "hswsimd: listen: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(stderr, "hswsimd: addr-file: %v\n", err)
			ln.Close()
			return 1
		}
	}
	fmt.Fprintf(stderr, "hswsimd: listening on %s\n", bound)

	// The Go-runtime pprof handlers live on their own listener: they
	// expose heap contents and can stall the process, so they must
	// never be reachable through the serving address.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "hswsimd: debug listen: %v\n", err)
			ln.Close()
			return 1
		}
		debugSrv = &http.Server{Handler: debugMux()}
		fmt.Fprintf(stderr, "hswsimd: debug (net/http/pprof) on %s\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "hswsimd: debug serve: %v\n", err)
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "hswsimd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain

	fmt.Fprintf(stderr, "hswsimd: draining (deadline %s)\n", *drainTimeout)
	srv.StartDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	// Shutdown stops accepting and waits for in-flight handlers; Drain
	// double-checks the server's own in-flight accounting and flushes
	// the manifest either way.
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "hswsimd: shutdown: %v\n", err)
		code = 1
	}
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stderr, "hswsimd: drain: %v\n", err)
		code = 1
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	if code == 0 {
		fmt.Fprintln(stderr, "hswsimd: drained cleanly")
	}
	return code
}

// debugMux mounts the net/http/pprof handlers on a fresh mux (the
// package's init registers them only on http.DefaultServeMux, which we
// never serve).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// defaultCacheDir mirrors cmd/experiments: the two tools share cache
// entries for identical tuples.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "hswsim", "experiments")
}
