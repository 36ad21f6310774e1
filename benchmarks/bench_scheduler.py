"""Streaming-scheduler benchmark: interleaved studies vs back-to-back runs.

Not a paper table — this tracks the win of running the static study and
the dynamic crawl through one streaming scheduler instead of one after
the other. The workload is deliberately skewed the way real mixed runs
are: a handful of fat static chunks that underfill the pool (until
work-stealing splits them) plus a few long crawl shards that a FIFO
drain would serialize behind. Results must stay byte-identical to the
separate runs at every worker count exercised here.

The baseline (``barrier_critical_path``) replays each study's measured
task costs through the steal-free FIFO schedule
(``simulate_stream(..., steal=False)``) and sums the two makespans:
back-to-back pools, no steals. ``one_scheduler_makespan`` queues both
studies' chunks back to back on one stealing scheduler, which splits
the gain into its interleaving and stealing parts.

Times are deterministic TickClock units replayed through the schedule
simulator, so the asserted speedup is stable across machines.
"""

from _emit import bench_json_fixture
from repro.core import DynamicStudy, InterleavedStudies, StaticStudy
from repro.exec import StreamScheduler, simulate_stream, simulate_stream_chunks
from repro.obs import (
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    Obs,
)

# The machine-readable summary lands in BENCH_scheduler.json (override
# with REPRO_BENCH_JSON); see benchmarks/_emit.py for the shared schema.
bench_json = bench_json_fixture("scheduler", benchmark="stream_scheduler")

UNIVERSE = 6_000
SEED = 424
SITES = 8
WORKERS = 8
#: Fat static chunks: few enough to underfill the pool until stolen.
STATIC_CHUNK = 40
CRAWL_CHUNK = 1


def _make_studies(workers):
    static = StaticStudy(
        universe_size=UNIVERSE, seed=SEED, obs=Obs(),
        max_workers=workers, chunk_size=STATIC_CHUNK,
        exec_backend="inline", telemetry=None, results_store=None,
    )
    dynamic = DynamicStudy(
        seed=SEED, site_count=SITES, obs=Obs(),
        max_workers=workers, chunk_size=CRAWL_CHUNK,
        exec_backend="inline", telemetry=None, results_store=None,
    )
    return static, dynamic


def _study_digest(result):
    return [
        (a.package, a.failed, a.uses_webview, a.uses_customtabs,
         len(a.calls), a.class_count)
        for a in result.analyses
    ]


def _crawl_digest(crawl):
    return (
        [(v.app.name, v.site.host, tuple(v.endpoints)) for v in crawl.visits],
        sorted((host, tuple(sorted(hosts)))
               for host, hosts in crawl._baseline.items()),
    )


def _run_alone(plan):
    """Run one plan on its own scheduler; returns (result, task costs)."""
    scheduler = StreamScheduler(plan.config)
    scheduler.run([plan.stage])
    costs = plan.costs()
    schedule, per_stage = scheduler.simulate([costs])
    return plan.finalize(scheduler, schedule, per_stage[0]), costs


def _chunks(costs, size):
    return [costs[start:start + size] for start in range(0, len(costs), size)]


def _back_to_back(workers):
    """The studies one after the other; digests plus two baselines.

    Returns the summed steal-free FIFO makespans of the two runs and the
    makespan of both studies' chunks queued back to back on one
    stealing scheduler.
    """
    static, dynamic = _make_studies(workers)
    result, static_costs = _run_alone(static.stream_plan())
    crawl, crawl_costs = _run_alone(dynamic.stream_plan())
    fifo = (
        simulate_stream(static_costs, workers, STATIC_CHUNK,
                        steal=False).critical_path
        + simulate_stream(crawl_costs, workers, CRAWL_CHUNK,
                          steal=False).critical_path
    )
    one_scheduler = simulate_stream_chunks(
        _chunks(static_costs, STATIC_CHUNK)
        + _chunks(crawl_costs, CRAWL_CHUNK), workers,
    ).critical_path
    return _study_digest(result), _crawl_digest(crawl), fifo, one_scheduler


def _interleaved(workers):
    """One shared streaming scheduler; returns digests + schedule stats."""
    static, dynamic = _make_studies(workers)
    result, crawl = InterleavedStudies(static, dynamic).run()
    # Both studies report the same shared makespan; read it once.
    makespan = static.obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    steals = static.obs.registry.value(EXEC_STEALS_METRIC)
    busy = sum(
        static.obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    ) + sum(
        dynamic.obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    )
    assert makespan == dynamic.obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    return _study_digest(result), _crawl_digest(crawl), makespan, steals, busy


def test_interleaved_speedup_over_pooled_baseline(bench_json):
    base_static, base_crawl, base_critical, one_scheduler = _back_to_back(
        WORKERS
    )
    static_digest, crawl_digest, makespan, steals, busy = _interleaved(
        WORKERS
    )

    # Byte-identity first: the speedup is worthless if the interleaved
    # run computes different artifacts.
    assert static_digest == base_static
    assert crawl_digest == base_crawl

    assert makespan > 0
    speedup = base_critical / makespan
    interleave_gain = one_scheduler / makespan
    utilization = busy / (makespan * WORKERS)
    print()
    print("interleaved speedup at %d workers: %.2fx "
          "(back-to-back FIFO %.3f -> streamed %.3f ticks, %d steals, "
          "%.0f%% pool utilization); back to back on one scheduler "
          "%.3f ticks, so interleaving alone gives %.2fx"
          % (WORKERS, speedup, base_critical, makespan, steals,
             100 * utilization, one_scheduler, interleave_gain))

    bench_json["workers"] = WORKERS
    bench_json["universe_size"] = UNIVERSE
    bench_json["site_count"] = SITES
    bench_json["static_chunk_size"] = STATIC_CHUNK
    bench_json["barrier_critical_path"] = round(base_critical, 6)
    bench_json["one_scheduler_makespan"] = round(one_scheduler, 6)
    bench_json["interleaved_makespan"] = round(makespan, 6)
    bench_json["speedup"] = round(speedup, 2)
    bench_json["interleave_gain"] = round(interleave_gain, 2)
    bench_json["steals"] = int(steals)
    bench_json["pool_utilization"] = round(utilization, 4)

    # Work-stealing is what breaks the fat static chunks apart; without
    # at least one steal the interleaved run would inherit the same
    # underfilled pool the FIFO baseline had.
    assert steals >= 1
    assert speedup >= 1.5


def test_identity_holds_at_other_worker_counts(bench_json):
    checked = []
    for workers in (1, 3):
        base_static, base_crawl, _, _ = _back_to_back(workers)
        static_digest, crawl_digest, _, _, _ = _interleaved(workers)
        assert static_digest == base_static
        assert crawl_digest == base_crawl
        checked.append(workers)
    bench_json["identity_checked_workers"] = checked + [WORKERS]
