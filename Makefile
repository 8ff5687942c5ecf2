# hswsim build/test entry points. Everything is standard-library Go;
# there is nothing to configure.

GO ?= go

.PHONY: all build test vet race bench bench-snapshot bench-compare golden golden-output bench-module fmtgate errgate deadgate eprofgate serve-smoke fuzz-smoke ci

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
# bitwise-identically to their parents, a 256-node parallel fleet
# study must render byte-identically to its serial reference, and a
# streamed fleet (fleet.Sweep) must measure every node as the batch
# fleet does, all under the race detector.
golden:
	$(GO) test -race -run 'TestSuiteSerialVsParallelByteIdentical' ./internal/exp
	$(GO) test -race -run 'TestFork|TestEngineFork' ./internal/core ./internal/sim
	$(GO) test -race -run 'TestFleetStudySerialVsParallel$$' ./internal/exp
	$(GO) test -race -run 'TestFleetSerialVsParallelIdentical|TestFleetRepeatable|TestSweepMatchesBatch|TestSweepPrefixMatchesBatch' ./internal/fleet

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

# fmtgate: every Go file is gofmt-formatted — any `gofmt -l` output
# fails, so formatting drift never rides along in a behavioural diff.
fmtgate:
	scripts/fmtgate.sh

# errgate: no silently discarded call results (`_ = f(...)`) outside
# test files — dropped errors must be propagated or counted in obs.
errgate:
	scripts/errgate.sh

# deadgate: production code only for programs — every top-level
# function, method and type in a non-test file is referenced by code a
# program runs (the module's commands and examples, the root hswsim API
# and bench/), so code that only tests use lives in test files. The
# module is type-checked with go/types; a failure names file:line.
deadgate:
	$(GO) test -count=1 -run '^TestProductionCodeIsReferenced$$' .

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

# fuzz-smoke: ten seconds of coverage-guided fuzzing per target — the
# event engine against its reference heap (lockstep dispatch traces
# plus the heap invariants), the p-state domain against the
# transition ring it replaced (LastTransition, InFlight, Granted and
# CompletionTime after every operation, and each record Complete
# returns), hostile hswsimd POST /v1/run bodies through decode and
# resolve (no panic; every accepted request names a known experiment
# with a scale in (0, max-scale] and valid options), the sockets'
# kept operating-point tables against tables rebuilt on every full
# segment, and runs with the constant-load steady check or the halted
# steady tick switched off against the same reference (equal RAPL
# energy and counter snapshots bit for bit, equal segment and point
# counts after up to 32 kernel, idle-state, p-state, power-limit, run
# and fork operations), System.ReadMSR/WriteMSR
# against the MSR handler layout they replaced (equal values and #GP
# faults after each of up to 64 register, run and fork operations,
# equal rendered outputs at the end), and corrupt result-cache entry
# files through expcache's Get (no panic; a hit only on the tuple's
# exact envelope, which returns its output, and every miss evicts the
# file); plain `go test` runs only the committed seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineDispatchOrder$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzLastTransition$$' -fuzztime 10s ./internal/pstate
	$(GO) test -run '^$$' -fuzz '^FuzzRunRequest$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPointTable$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMSR$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCacheEntry$$' -fuzztime 10s ./internal/expcache

# ci: the full gate, run as ordered named steps so a failure points at
# the gate that tripped (a data race in the fork/Release paths should
# surface as "race-full failed", not a generic test error) — vet, the
# gofmt gate, the discarded-error grep, the unreferenced-production-code
# gate, the race-enabled full test suite (includes the suite scheduler
# determinism test), benchmark smoke, perf regression diff, the
# serial-vs-forked-parallel golden comparison, the committed reference
# output, the energy-profiler gate, the hswsimd server lifecycle smoke,
# the bench/ module build and smoke test, and the event-engine, p-state,
# run-request, point-table, MSR and cache-entry fuzz smoke.
ci:
	@echo "==> ci step 1/13: vet"
	@$(MAKE) --no-print-directory vet || { echo "ci: gate 'vet' failed — go vet ./... reported issues" >&2; exit 1; }
	@echo "==> ci step 2/13: fmtgate"
	@$(MAKE) --no-print-directory fmtgate || { echo "ci: gate 'fmtgate' failed — Go files not gofmt-formatted" >&2; exit 1; }
	@echo "==> ci step 3/13: errgate"
	@$(MAKE) --no-print-directory errgate || { echo "ci: gate 'errgate' failed — discarded call result outside tests" >&2; exit 1; }
	@echo "==> ci step 4/13: deadgate"
	@$(MAKE) --no-print-directory deadgate || { echo "ci: gate 'deadgate' failed — a non-test function, method or type is referenced by tests or by nothing" >&2; exit 1; }
	@echo "==> ci step 5/13: race-full"
	@$(MAKE) --no-print-directory race || { echo "ci: gate 'race-full' failed — data race or test failure under -race" >&2; exit 1; }
	@echo "==> ci step 6/13: bench smoke"
	@$(MAKE) --no-print-directory bench || { echo "ci: gate 'bench' failed — a benchmark harness no longer runs" >&2; exit 1; }
	@echo "==> ci step 7/13: bench-compare"
	@$(MAKE) --no-print-directory bench-compare || { echo "ci: gate 'bench-compare' failed — perf regression against BENCH_sim.json" >&2; exit 1; }
	@echo "==> ci step 8/13: golden"
	@$(MAKE) --no-print-directory golden || { echo "ci: gate 'golden' failed — serial vs parallel output diverged" >&2; exit 1; }
	@echo "==> ci step 9/13: golden-output"
	@$(MAKE) --no-print-directory golden-output || { echo "ci: gate 'golden-output' failed — scale-0.5 suite output differs from results/experiments-scale0.5.txt" >&2; exit 1; }
	@echo "==> ci step 10/13: eprofgate"
	@$(MAKE) --no-print-directory eprofgate || { echo "ci: gate 'eprofgate' failed — energy profile broke stdout identity or attribution totals" >&2; exit 1; }
	@echo "==> ci step 11/13: serve-smoke"
	@$(MAKE) --no-print-directory serve-smoke || { echo "ci: gate 'serve-smoke' failed — hswsimd lifecycle (health/coalesce/drain) broke" >&2; exit 1; }
	@echo "==> ci step 12/13: bench-module"
	@$(MAKE) --no-print-directory bench-module || { echo "ci: gate 'bench-module' failed — bench/ no longer builds or its smoke test fails" >&2; exit 1; }
	@echo "==> ci step 13/13: fuzz-smoke"
	@$(MAKE) --no-print-directory fuzz-smoke || { echo "ci: gate 'fuzz-smoke' failed — the event engine or the p-state domain diverged from its reference, hswsimd accepted or panicked on a hostile run request, a kept operating-point table or a steady fast path diverged from a table rebuilt every segment, the MSR switch diverged from the handler layout it replaced, or the result cache served or kept a corrupt entry, under fuzzing" >&2; exit 1; }
	@echo "ci: all gates passed"
