package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hswsim/internal/exp"
	"hswsim/internal/expcache"
	"hswsim/internal/server"
)

// clients is the closed loop's client count: /v1/run callers wait for
// their reply, and the reference box has two cores.
const clients = 2

// hotIDs are the experiments of the prefilled hot set (cheap at scale
// 0.25, so set-up stays short); liveIDs draw the fresh tuples (tens of
// milliseconds each at scale 0.1).
var (
	hotIDs  = []string{"tab1", "tab2", "tab3", "fig1", "fig2", "fig3", "fig7", "catalog"}
	liveIDs = []string{"tab3", "fig3", "fig7", "catalog"}
)

// tuple is one /v1/run request body.
type tuple struct {
	ID    string  `json:"id"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
}

type opKind int

const (
	opHot  opKind = iota // a prefilled tuple: the cache-hit read path
	opPair               // a fresh tuple queued twice back to back: one coalesces
	opLive               // a fresh tuple: admission, live run and cache Put
)

func (k opKind) String() string { return [...]string{"hot", "pair", "live"}[k] }

type op struct {
	kind opKind
	t    tuple
	hot  int // index into the hot set, for opHot
}

// hotSet is the serve workload's fixed, prefilled tuples.
func hotSet(seed uint64, sz sizing) []tuple {
	ts := make([]tuple, len(hotIDs))
	for i, id := range hotIDs {
		ts[i] = tuple{ID: id, Scale: sz.hotScale, Seed: seed}
	}
	return ts
}

// opQueue draws the n requests of one pass from (seed, stream). The mix
// is synthetic; no recorded hswsimd traffic stands behind it. Every pass
// has the same mix, so pass wall times compare: 10% live tuples, 5% in
// coalescing pairs (n/40 pairs of two requests), the other 85% hot. Only
// the order, the hot picks and the fresh seeds vary. Fresh tuples cycle
// through liveIDs with nonzero seeds (zero would select the server's
// default seed).
func opQueue(seed, stream uint64, n int, sz sizing) []op {
	rng := rand.New(rand.NewPCG(seed, stream))
	hot := hotSet(seed, sz)
	live, pairs := max(1, n/10), max(1, n/40)
	fresh := func(i int) tuple {
		return tuple{ID: liveIDs[i%len(liveIDs)], Scale: sz.liveScale, Seed: rng.Uint64() | 1}
	}
	var units [][]op
	for i := range live {
		units = append(units, []op{{kind: opLive, t: fresh(i)}})
	}
	for i := range pairs {
		t := fresh(i)
		units = append(units, []op{{kind: opPair, t: t}, {kind: opPair, t: t}})
	}
	for range n - live - 2*pairs {
		i := rng.IntN(len(hot))
		units = append(units, []op{{kind: opHot, t: hot[i], hot: i}})
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	ops := make([]op, 0, n)
	for _, u := range units {
		ops = append(ops, u...)
	}
	return ops
}

// accessLog collects the server's access-log lines; take lets the reader
// wait for the lines the middleware writes after each response.
type accessLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	lines []string
}

func newAccessLog() *accessLog {
	a := &accessLog{}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *accessLog) Write(b []byte) (int, error) {
	a.mu.Lock()
	a.lines = append(a.lines, strings.TrimSpace(string(b)))
	a.mu.Unlock()
	a.cond.Broadcast()
	return len(b), nil
}

// take waits for n lines and removes them from the log.
func (a *accessLog) take(n int) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.lines) < n {
		a.cond.Wait()
	}
	out := a.lines[:n]
	a.lines = a.lines[n:]
	return out
}

// serveEnv is a running hswsimd handler on a loopback listener, as
// cmd/hswsimd builds it, plus the reference bytes of its hot set.
type serveEnv struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	dir     string
	hot     []tuple
	prefill []prefilled
	refs    [][]byte
}

// prefilled is the reply to one prefill request.
type prefilled struct {
	body []byte
	err  error
}

// referenceBytes renders each hot tuple through the CLI path.
func referenceBytes(hot []tuple) ([][]byte, error) {
	refs := make([][]byte, len(hot))
	for i, t := range hot {
		var err error
		exp.RunSuite([]string{t.ID}, exp.Options{Scale: t.Scale, Seed: t.Seed}, false, nil,
			func(r exp.SuiteResult) { refs[i], err = r.Output, r.Err })
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", t.ID, err)
		}
	}
	return refs, nil
}

// newServeEnv does what a daemon does before serving: it opens an empty
// result cache, calls server.New, listens and prefills the hot set. The
// returned pass times that set-up; setRefs checks its prefill bodies.
func newServeEnv(hot []tuple, tmp string, access *accessLog) (*serveEnv, pass, error) {
	e := &serveEnv{hot: hot}
	p := pass{}
	before := readCounts()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	dir, err := os.MkdirTemp(tmp, "serve-cache-")
	if err != nil {
		return nil, pass{}, err
	}
	e.dir = dir
	cache, err := expcache.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, pass{}, err
	}
	cfg := server.Config{Cache: cache}
	if access != nil { // a nil *accessLog would be a non-nil io.Writer
		cfg.AccessLog = access
	}
	e.srv = server.New(cfg)
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	for _, t := range e.hot {
		p.Attempted++
		code, body, _, err := e.post(t)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		e.prefill = append(e.prefill, prefilled{body, err})
	}
	p.Wall = time.Since(t0).Seconds()
	p.CPU = cpuSeconds() - cpu0
	p.Counts = readCounts().minus(before)
	if access != nil {
		access.take(len(e.hot))
	}
	return e, p, nil
}

// setRefs gives the environment its hot set's reference bytes and counts
// each prefill request that failed or whose body differs from them as a
// failure of the set-up.
func (e *serveEnv) setRefs(refs [][]byte, setup *pass) {
	e.refs = refs
	for i, t := range e.hot {
		err := e.prefill[i].err
		if err == nil && !bytes.Equal(e.prefill[i].body, refs[i]) {
			err = errors.New("body differs from the reference")
		}
		if err != nil {
			setup.Failed++
			setup.Errors = append(setup.Errors, fmt.Sprintf("prefill %s: %v", t.ID, err))
		}
	}
}

func (e *serveEnv) post(t tuple) (int, []byte, http.Header, error) {
	body, err := json.Marshal(t)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := e.client.Post(e.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

// close drains the server and removes its cache directory.
func (e *serveEnv) close() {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "bench: serve drain: %v\n", err)
	}
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

type reqResult struct {
	code      int
	body      []byte
	err       error
	latency   time.Duration
	cached    bool
	coalesced bool
}

// batch sends ops through the closed loop: each client takes the next
// queued op as soon as its previous request completes. Bodies are
// checked against the hot set's reference bytes and pair partners.
func (e *serveEnv) batch(ops []op, tr *tracer, parent int) pass {
	res := make([]reqResult, len(ops))
	var next atomic.Int64
	before := readCounts()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				start := time.Now()
				code, body, hdr, err := e.post(ops[i].t)
				r := reqResult{code: code, err: err, latency: time.Since(start)}
				if hdr != nil {
					r.cached = hdr.Get("X-Hswsim-Cached") == "true"
					r.coalesced = hdr.Get("X-Hswsim-Coalesced") == "true"
				}
				switch ops[i].kind {
				case opHot:
					if !bytes.Equal(body, e.refs[ops[i].hot]) {
						r.err = fmt.Errorf("hot %s body differs from the reference", ops[i].t.ID)
					}
				case opPair:
					r.body = body
				case opLive:
					if len(body) == 0 {
						r.err = fmt.Errorf("live %s: empty body", ops[i].t.ID)
					}
				}
				res[i] = r
				tr.add("request "+ops[i].kind.String(), parent, 1+c, start, start.Add(r.latency),
					map[string]any{"id": ops[i].t.ID, "status": code, "cached": r.cached, "coalesced": r.coalesced})
			}
		}()
	}
	wg.Wait()
	p := pass{Wall: time.Since(t0).Seconds(), CPU: cpuSeconds() - cpu0, Attempted: len(ops)}
	p.Counts = readCounts().minus(before)
	for i := range ops {
		r := &res[i]
		if ops[i].kind == opPair && i+1 < len(ops) && ops[i+1] == ops[i] && !bytes.Equal(r.body, res[i+1].body) {
			r.err = fmt.Errorf("pair %s: partner bodies differ", ops[i].t.ID)
			res[i+1].err = r.err
		}
	}
	for i, r := range res {
		p.Ops = append(p.Ops, ms(r.latency))
		if (ops[i].kind == opLive || ops[i].kind == opPair) && !r.cached && !r.coalesced {
			p.Live = append(p.Live, ms(r.latency))
		}
		if ops[i].kind == opPair && r.coalesced {
			p.PairsCoalesced++
		}
		if r.err != nil || r.code != http.StatusOK {
			p.Failed++
			if len(p.Errors) < 5 {
				p.Errors = append(p.Errors, fmt.Sprintf("%s %s: status %d: %v", ops[i].kind, ops[i].t.ID, r.code, r.err))
			}
		}
	}
	return p
}

// streamID names the op queue of one pass of one process.
func streamID(child, pass int) uint64 { return uint64(child)<<32 | uint64(pass) }

// runServeChild measures one process's share of an untraced serve run.
// Its set-up runs from the process's exec at t0 until the server is
// listening with the hot set prefilled; the reference bytes are rendered
// after it. Timed batches then run within budget of t0.
func runServeChild(seed uint64, child int, sz sizing, t0 time.Time, budget time.Duration, tmp string) (childReport, error) {
	hot := hotSet(seed, sz)
	e, setup, err := newServeEnv(hot, tmp, nil)
	if err != nil {
		return childReport{}, err
	}
	defer e.close()
	setup.Wall = time.Since(t0).Seconds()
	refs, err := referenceBytes(hot)
	if err != nil {
		return childReport{}, err
	}
	e.setRefs(refs, &setup)
	rep := childReport{Setup: setup}
	rep.Passes, err = timedPasses(&rep.Setup, t0, budget, func(i int) pass {
		return e.batch(opQueue(seed, streamID(child, i), sz.batch, sz), nil, 0)
	})
	return rep, err
}

// serverLayer derives the server and result-cache metrics of one traced
// batch from its counter deltas and its access-log lines.
func serverLayer(ops []op, p pass, lines []string, m map[string]float64) {
	d := p.Counts
	pairs := 0
	for _, o := range ops {
		if o.kind == opPair {
			pairs++
		}
	}
	pairs /= 2
	m["expcache.hits"] = float64(d["expcache_hits_total"])
	m["expcache.misses"] = float64(d["expcache_misses_total"])
	m["server.cache_hits"] = float64(d["server_cache_hits_total"])
	m["server.coalesced"] = float64(d["server_coalesced_total"])
	// The counter also counts concurrent requests for one hot tuple,
	// which share a flight too; the ratio counts pair followers only.
	m["server.coalesce_ratio"] = ratio(float64(p.PairsCoalesced), float64(pairs))
	m["server.shed"] = float64(d["server_shed_total"])
	var queue, run []float64
	for _, l := range lines {
		f := logfmt(l)
		if q, err := strconv.ParseFloat(f["queue_us"], 64); err == nil {
			queue = append(queue, q/1e3)
		}
		if r, err := strconv.ParseFloat(f["run_ms"], 64); err == nil {
			run = append(run, r)
		}
	}
	// The log records whole milliseconds of run time and mostly-zero
	// queue waits, so means say more than medians here.
	m["server.queue_wait_mean_ms"] = mean(queue)
	m["server.run_mean_ms"] = mean(run)
}

// logfmt splits an access-log line's unquoted key=value fields.
func logfmt(line string) map[string]string {
	f := map[string]string{}
	for _, kv := range strings.Fields(line) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			f[k] = v
		}
	}
	return f
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// tmpDir is where a run keeps scratch files inside its output directory.
func tmpDir(out string) (string, error) {
	d := filepath.Join(out, "tmp")
	return d, os.MkdirAll(d, 0o755)
}
