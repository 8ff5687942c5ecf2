# hswsim build/test entry points. Everything is standard-library Go;
# there is nothing to configure.

GO ?= go

.PHONY: all build test vet race bench bench-snapshot bench-compare golden golden-output bench-module errgate tracegate eprofgate serve-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# bench: one iteration of every benchmark — a smoke test that the
# benchmark harnesses still run, not a measurement.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-snapshot: full measurement, refreshes BENCH_sim.json.
bench-snapshot:
	scripts/bench_snapshot.sh

# bench-compare: perf-regression guard — fresh run diffed against the
# committed BENCH_sim.json (ns/op within +/-25%; allocs/op exact for
# lean benchmarks, +/-5% for batch fan-out benchmarks).
bench-compare:
	scripts/bench_snapshot.sh -compare

# golden: the determinism gate in isolation — the full suite rendered
# with forked-parallel sweep points must be byte-identical to the
# strictly serial reference, forked platforms must evolve
# bitwise-identically to their parents, and a 256-node sharded fleet
# study must render byte-identically to its serial reference, all under
# the race detector.
golden:
	$(GO) test -race -run 'TestSuiteSerialVsParallelByteIdentical' ./internal/exp
	$(GO) test -race -run 'TestFork|TestEngineFork' ./internal/core ./internal/sim
	$(GO) test -race -run 'TestFleetStudySerialVsParallel$$' ./internal/exp
	$(GO) test -race -run 'TestFleetSerialVsParallelIdentical|TestFleetRepeatable' ./internal/fleet

# golden-output: the committed reference output — a live (uncached)
# scale-0.5 run of the whole suite must match
# results/experiments-scale0.5.txt byte for byte, so a speed-only change
# that moves one output byte fails here.
golden-output:
	$(GO) run ./cmd/experiments -run all -scale 0.5 -no-cache | cmp - results/experiments-scale0.5.txt

# bench-module: bench/ is a module of its own, so ./... at the root
# never compiles it; its smoke test builds it against the current tree
# and runs every workload at reduced size.
bench-module:
	cd bench && $(GO) test ./...

# errgate: no silently discarded call results (`_ = f(...)`) outside
# test files — dropped errors must be propagated or counted in obs.
errgate:
	scripts/errgate.sh

# tracegate: no raw trace.Buffer construction or storage outside
# internal/trace — span-producing subsystems record through the
# trace.Collector so episode pairing, drop counting and Fork cloning
# cannot be bypassed.
tracegate:
	scripts/tracegate.sh

# eprofgate: the energy-profiler gate — a scale-0.25 full-suite run
# with -eprof must leave stdout byte-identical, emit pprof protobuf
# that decodes in-process (no external tools) with nonzero samples,
# and emit folded stacks whose column sum equals the manifest's total
# energy exactly (integer nanojoules).
eprofgate:
	$(GO) test -count=1 -run 'TestEprofGate' ./cmd/experiments

# serve-smoke: the server lifecycle gate — start hswsimd on a random
# port, hit /healthz, run a cached and a coalesced request pair through
# the smoke client, then SIGTERM and require exit 0 plus a flushed
# drain manifest with zero failure counters.
serve-smoke:
	scripts/serve_smoke.sh

# ci: the full gate, run as ordered named steps so a failure points at
# the gate that tripped (a wheel concurrency bug should surface as
# "race-full failed", not a generic test error) — vet, the
# discarded-error and raw-buffer greps, the race-enabled full test
# suite (includes the suite scheduler determinism test), benchmark
# smoke, perf regression diff, the serial-vs-forked-parallel golden
# comparison, the committed reference output, the energy-profiler
# gate, the hswsimd server lifecycle smoke and the bench/ module build
# and smoke test.
ci:
	@echo "==> ci step 1/11: vet"
	@$(MAKE) --no-print-directory vet || { echo "ci: gate 'vet' failed — go vet ./... reported issues" >&2; exit 1; }
	@echo "==> ci step 2/11: errgate"
	@$(MAKE) --no-print-directory errgate || { echo "ci: gate 'errgate' failed — discarded call result outside tests" >&2; exit 1; }
	@echo "==> ci step 3/11: tracegate"
	@$(MAKE) --no-print-directory tracegate || { echo "ci: gate 'tracegate' failed — raw trace.Buffer use outside internal/trace" >&2; exit 1; }
	@echo "==> ci step 4/11: race-full"
	@$(MAKE) --no-print-directory race || { echo "ci: gate 'race-full' failed — data race or test failure under -race" >&2; exit 1; }
	@echo "==> ci step 5/11: bench smoke"
	@$(MAKE) --no-print-directory bench || { echo "ci: gate 'bench' failed — a benchmark harness no longer runs" >&2; exit 1; }
	@echo "==> ci step 6/11: bench-compare"
	@$(MAKE) --no-print-directory bench-compare || { echo "ci: gate 'bench-compare' failed — perf regression against BENCH_sim.json" >&2; exit 1; }
	@echo "==> ci step 7/11: golden"
	@$(MAKE) --no-print-directory golden || { echo "ci: gate 'golden' failed — serial vs parallel output diverged" >&2; exit 1; }
	@echo "==> ci step 8/11: golden-output"
	@$(MAKE) --no-print-directory golden-output || { echo "ci: gate 'golden-output' failed — scale-0.5 suite output differs from results/experiments-scale0.5.txt" >&2; exit 1; }
	@echo "==> ci step 9/11: eprofgate"
	@$(MAKE) --no-print-directory eprofgate || { echo "ci: gate 'eprofgate' failed — energy profile broke stdout identity or attribution totals" >&2; exit 1; }
	@echo "==> ci step 10/11: serve-smoke"
	@$(MAKE) --no-print-directory serve-smoke || { echo "ci: gate 'serve-smoke' failed — hswsimd lifecycle (health/coalesce/drain) broke" >&2; exit 1; }
	@echo "==> ci step 11/11: bench-module"
	@$(MAKE) --no-print-directory bench-module || { echo "ci: gate 'bench-module' failed — bench/ no longer builds or its smoke test fails" >&2; exit 1; }
	@echo "ci: all gates passed"
