package obs

// The canonical metric set every instrumented subsystem reports to, on
// the Default registry. Names follow Prometheus conventions (_total for
// counters, explicit units) so the exposition writer needs no mapping.
//
// Hot-path contributors (the event dispatcher, the per-segment power
// integrator) do not touch these atomics per event: they keep plain
// single-goroutine counters and flush deltas at run boundaries — see
// sim.Engine and core.System.
var (
	// Sim engine: dispatch volume, timer-pool effectiveness, forks.
	SimEventsDispatched = std.Counter("sim_events_dispatched_total",
		"events dispatched across all sim engines")
	SimTimerPoolReuse = std.Counter("sim_timer_pool_reuse_total",
		"timer entries recycled from an engine free list")
	SimTimerPoolAlloc = std.Counter("sim_timer_pool_alloc_total",
		"timer entries newly allocated (free list empty)")
	SimForks = std.Counter("sim_forks_total",
		"engine forks (one per parallel sweep point)")

	// Platform forks: System.Fork cost and child reuse. The wall
	// histogram is the fork latency budget gate (~10 us target); the
	// bytes counter tracks the state each fork copies into its child
	// (struct shells with their MSR register words, residency, PCU
	// bookkeeping, meter samples, and the span ring and profile
	// buckets when enabled).
	CoreForkReuse = std.Counter("core_fork_child_reuse_total",
		"forks served from the released-child free list (no fresh allocation)")
	CoreForkBytes = std.Counter("core_fork_copied_bytes_total",
		"bytes each platform fork copies into its child")
	CoreForkWall = std.Histogram("core_fork_wall_ns",
		"wall-clock latency of core.System.Fork",
		[]int64{500, 1_000, 2_000, 5_000, 10_000, 25_000, 100_000, 1_000_000})

	// Suite scheduler: slot pressure on the shared compute pool.
	SchedSlots = std.Gauge("sched_slots",
		"compute slots in the shared pool (GOMAXPROCS)")
	SchedSlotsBusy = std.Gauge("sched_slots_busy",
		"compute slots currently held")
	SchedSlotAcquires = std.Counter("sched_slot_acquires_total",
		"slot acquisitions (suite-level experiments + point-level helpers)")
	SchedSlotWaitNS = std.Counter("sched_slot_wait_ns_total",
		"total nanoseconds spent waiting for a compute slot")
	SchedSlotWait = std.Histogram("sched_slot_wait_ns",
		"distribution of time spent waiting for a compute slot",
		[]int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000,
			100_000_000, 1_000_000_000, 10_000_000_000})
	SchedSlotCancels = std.Counter("sched_slot_acquire_cancels_total",
		"cancellable slot waits abandoned (context done before a slot freed)")
	SchedQueueDepth = std.Gauge("sched_queue_depth",
		"callers currently waiting in a bounded admission queue")
	SchedQueueSheds = std.Counter("sched_queue_shed_total",
		"slot acquisitions rejected because the admission queue was at depth")

	// Fleet driver: node volume and round latency. A sweep of N nodes
	// counts N nodes and 2N steps, as New, Step and Measure of N nodes
	// do, in one round.
	FleetNodes = std.Counter("fleet_nodes_forked_total",
		"fleet nodes forked (and varied) from a warmed parent platform")
	FleetSteps = std.Counter("fleet_node_steps_total",
		"per-node fleet step operations executed")
	FleetWall = std.Histogram("fleet_round_wall_ns",
		"wall-clock latency of one parallel fleet round (sweep, fan-out or whole-fleet step)",
		[]int64{100_000, 1_000_000, 10_000_000, 100_000_000,
			1_000_000_000, 10_000_000_000, 60_000_000_000})

	// Experiments: per-id run counts and point-sweep volume.
	ExpRuns = std.CounterVec("exp_runs_total",
		"experiments executed live (cache misses included, hits excluded)", "id")
	ExpPoints = std.Counter("exp_sweep_points_total",
		"point-level work items executed by parallelMap")

	// Harness wall clock: what the measurement infrastructure itself
	// spent. The run manifest's harness section is their counts and
	// sums; wall time never reaches experiment output.
	HarnessExperimentWall = std.Histogram("harness_experiment_wall_ns",
		"wall-clock time of each live suite experiment, slot wait included", harnessBounds)
	HarnessPointWall = std.Histogram("harness_point_wall_ns",
		"wall-clock time of each parallelMap sweep point", harnessBounds)
	HarnessSlotWall = std.Histogram("harness_slot_wall_ns",
		"wall-clock time a compute slot was held by a live run or a fan-out helper", harnessBounds)

	// Result cache.
	CacheHits = std.Counter("expcache_hits_total",
		"result cache hits (rendered bytes replayed)")
	CacheMisses = std.Counter("expcache_misses_total",
		"result cache misses (live run required)")
	CacheEvictions = std.Counter("expcache_evictions_total",
		"corrupt or stale cache entries evicted on read")
	CachePutFailures = std.Counter("expcache_put_failures_total",
		"cache writes that failed (result not persisted; run unaffected)")
	CacheOrphansSwept = std.Counter("expcache_orphans_swept_total",
		"stale .put-* temp files left by crashed writers, removed on Open")

	// Power integrator: change-driven segment accounting.
	PowerSegReplays = std.Counter("power_segments_replayed_total",
		"integration segments served by the memoized steady-state replay")
	PowerSegFulls = std.Counter("power_segments_full_total",
		"integration segments that re-solved the full operating point")
	PowerSegRegrouped = std.Counter("power_segments_regrouped_total",
		"full segments that rebuilt the socket's operating-point table")
	PowerFullLoads = std.Counter("power_full_core_loads_total",
		"active cores integrated by full segments (one load per core per segment)")
	PowerFullPoints = std.Counter("power_full_points_total",
		"distinct operating points the full segments solved (clock, ring class, threads, profile)")

	// Virtual-time tracing: span volume and ring overwrites. The drop
	// counter is the "no silent caps" guard for the bounded span rings —
	// nonzero means the exported trace is truncated and the collector
	// capacity needs raising.
	TraceSpans = std.Counter("trace_spans_total",
		"completed virtual-time spans recorded across all collectors")
	TraceSpanDrops = std.Counter("trace_span_drops_total",
		"completed spans overwritten in full span rings (trace truncated)")

	// Energy profiler (internal/eprof): attribution volume and fork-delta
	// merges. Segment counts flush at run boundaries like the power
	// integrator's (the Apply hot path keeps a plain field).
	EprofSegments = std.Counter("eprof_segments_attributed_total",
		"integration segments attributed into an energy profile")
	EprofMerges = std.Counter("eprof_point_merges_total",
		"forked sweep-point profile deltas merged back into a parent collector")

	// Serving layer (cmd/hswsimd): request volume by endpoint, the
	// coalescing and load-shedding outcomes, and live-run latency. The
	// failure counter is part of the zero-on-clean-run contract below.
	ServerRequests = std.CounterVec("server_requests_total",
		"HTTP requests received, by endpoint", "endpoint")
	ServerCoalesced = std.Counter("server_coalesced_total",
		"run requests that joined an identical in-flight run instead of executing")
	ServerCacheHits = std.Counter("server_cache_hits_total",
		"run requests answered from the result cache without a live run")
	ServerShed = std.Counter("server_shed_total",
		"run requests rejected with 429 (admission queue at depth)")
	ServerDrainRejects = std.Counter("server_drain_rejects_total",
		"requests rejected with 503 because the server was draining")
	ServerInflight = std.Gauge("server_inflight_runs",
		"live experiment runs currently executing in the server")
	ServerRunWall = std.Histogram("server_run_wall_ns",
		"wall-clock latency of live (uncached, uncoalesced) server runs",
		[]int64{1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
			10_000_000_000, 60_000_000_000})
	ServerFailures = std.Counter("server_failures_total",
		"run requests that failed with an internal error (HTTP 500)")

	// Silent-failure counters: zero on a clean run, nonzero when a
	// previously invisible degradation happened (surfaced by -report).
	RAPLWindowErrors = std.Counter("rapl_window_errors_total",
		"RAPLPowerW calls rejected (invalid window or MSR read failure)")
	StatsEmptyInputs = std.Counter("stats_empty_input_total",
		"statistics requested over empty inputs (defined zero returned)")
)

// harnessBounds spans a sub-millisecond sweep point to a minute-long
// experiment.
var harnessBounds = []int64{100_000, 1_000_000, 10_000_000, 100_000_000,
	1_000_000_000, 10_000_000_000, 60_000_000_000}
