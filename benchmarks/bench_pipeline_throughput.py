"""Micro-benchmarks of the pipeline's substrates.

Not a paper table — these track the cost of each Figure 1 stage so that
regressions in the substrates (zip, dex, decompiler, parser, call graph)
are visible: per-APK analysis latency, decompile+parse throughput,
call-graph construction, and the sharded execution layer's parallel
speedup and cache behaviour.
"""

import time

import pytest

from _emit import bench_json_fixture
from repro.apk.container import read_apk
from repro.callgraph.builder import build_call_graph
from repro.corpus import CorpusConfig, build_app_apk, generate_corpus
from repro.corpus.profiles import build_spec
from repro.decompiler.jadx import Decompiler
from repro.exec import AnalysisCache, ExecConfig
from repro.javasrc.parser import parse_java
from repro.obs import (
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_TASKS_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    Obs,
    STAGE_SECONDS_METRIC,
)
from repro.playstore.models import AppCategory
from repro.sdk import build_catalog
from repro.static_analysis.export import export_study_json
from repro.static_analysis.pipeline import (
    StaticAnalysisPipeline,
    analyze_apk_bytes,
)
from repro.static_analysis.report import Aggregator, table2, table3
from repro.util import DEFAULT_SEED

# The machine-readable summary lands in BENCH_throughput.json (override
# with REPRO_BENCH_JSON); see benchmarks/_emit.py for the shared schema.
bench_json = bench_json_fixture("throughput",
                                benchmark="pipeline_throughput")


@pytest.fixture(scope="module")
def sample_apk_bytes():
    catalog = build_catalog()
    spec = build_spec(CorpusConfig(universe_size=1, seed=100), catalog, 0,
                      pinned=("com.bench.app", "Bench", 5_000_000,
                              AppCategory.SOCIAL))
    spec.broken = False
    return build_app_apk(spec)


@pytest.mark.benchmark(group="throughput")
def test_per_apk_analysis_latency(benchmark, sample_apk_bytes):
    analysis = benchmark(analyze_apk_bytes, sample_apk_bytes)
    assert analysis.package == "com.bench.app"


@pytest.mark.benchmark(group="throughput")
def test_apk_parse_latency(benchmark, sample_apk_bytes):
    apk = benchmark(read_apk, sample_apk_bytes)
    assert apk.package == "com.bench.app"


@pytest.mark.benchmark(group="throughput")
def test_decompile_latency(benchmark, sample_apk_bytes):
    apk = read_apk(sample_apk_bytes)
    decompiler = Decompiler()
    decompiled = benchmark(decompiler.decompile_apk, apk)
    assert decompiled.sources


@pytest.mark.benchmark(group="throughput")
def test_java_parse_throughput(benchmark, sample_apk_bytes):
    apk = read_apk(sample_apk_bytes)
    sources = list(Decompiler().decompile_apk(apk).sources.values())

    def parse_all():
        return [parse_java(source) for source in sources]

    units = benchmark(parse_all)
    assert len(units) == len(sources)


@pytest.mark.benchmark(group="throughput")
def test_call_graph_construction(benchmark, sample_apk_bytes):
    dex = read_apk(sample_apk_bytes).dex
    graph = benchmark(build_call_graph, dex)
    assert graph.node_count > 0


# -- sharded execution --------------------------------------------------------


@pytest.fixture(scope="module")
def exec_corpus():
    return generate_corpus(
        CorpusConfig(universe_size=2_000, seed=DEFAULT_SEED), obs=Obs()
    )


def _run_sharded(corpus, max_workers, chunk_size, cache):
    # A fresh cache per run keeps every task a miss, so worker-busy time
    # reflects real analysis work rather than cache lookups.
    obs = Obs()
    pipeline = StaticAnalysisPipeline(
        corpus, obs=obs, cache=cache,
        exec_config=ExecConfig(max_workers=max_workers,
                               chunk_size=chunk_size, backend="inline"),
    )
    return obs, pipeline.run()


def test_parallel_speedup_at_four_workers(exec_corpus):
    serial_obs, serial = _run_sharded(exec_corpus, 1, 8, AnalysisCache())
    sharded_obs, sharded = _run_sharded(exec_corpus, 4, 4, AnalysisCache())

    busy = sum(
        sharded_obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    )
    critical = sharded_obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    assert critical > 0
    speedup = busy / critical
    print()
    print("parallel speedup at 4 workers: %.2fx "
          "(busy %g / critical path %g, %d apps)"
          % (speedup, busy, critical, sharded.analyzed + sharded.broken))
    assert speedup >= 2.0

    # Same seed, different worker counts: byte-identical artifacts.
    assert table2(serial).render() == table2(sharded).render()
    assert table3(Aggregator(serial)).render() == (
        table3(Aggregator(sharded)).render()
    )


def _timed_run(corpus, cache, class_cache=True):
    """One real-clock run; returns (obs, result, per-stage seconds)."""
    obs = Obs(clock=time.perf_counter)
    pipeline = StaticAnalysisPipeline(
        corpus, obs=obs, cache=cache,
        exec_config=ExecConfig(max_workers=4, chunk_size=4,
                               backend="inline", cache=class_cache),
    )
    result = pipeline.run()
    stages = {
        labels[0]: value
        for labels, value in
        obs.registry.label_values(STAGE_SECONDS_METRIC).items()
    }
    return obs, result, stages


def _class_hit_rate(obs):
    hits = obs.registry.value(EXEC_CLASS_CACHE_HITS_METRIC)
    misses = obs.registry.value(EXEC_CLASS_CACHE_MISSES_METRIC)
    return hits / (hits + misses)


def test_class_cache_speedup(exec_corpus, bench_json):
    """Warm vs cold class cache on the 2K universe, equality included.

    Three legs over the same corpus: class cache off (baseline), cold
    (fresh class tier — still deduplicates across apps within the run),
    warm (class tier pre-populated by the cold run). Timing legs use
    best-of-2 to absorb real-clock noise; results must be byte-identical
    across all three.
    """
    _, off_result, off_stages = _timed_run(
        exec_corpus, AnalysisCache(), class_cache=False
    )

    cold_cache = AnalysisCache()
    cold_obs, cold_result, cold_stages = _timed_run(exec_corpus, cold_cache)
    retry_cache = AnalysisCache()
    _, _, cold_retry = _timed_run(exec_corpus, retry_cache)
    cold_time = min(cold_stages["analyze_app"], cold_retry["analyze_app"])

    warm_obs, warm_result, warm_stages = _timed_run(
        exec_corpus, AnalysisCache(classes=cold_cache.classes)
    )
    _, _, warm_retry = _timed_run(
        exec_corpus, AnalysisCache(classes=cold_cache.classes)
    )
    warm_time = min(warm_stages["analyze_app"], warm_retry["analyze_app"])

    # Same seed, any cache state: byte-identical StudyResults.
    off_exported = export_study_json(off_result)
    assert export_study_json(cold_result) == off_exported
    assert export_study_json(warm_result) == off_exported
    assert table2(warm_result).render() == table2(off_result).render()
    assert table3(Aggregator(warm_result)).render() == (
        table3(Aggregator(off_result)).render()
    )

    cold_rate = _class_hit_rate(cold_obs)
    warm_rate = _class_hit_rate(warm_obs)
    speedup = cold_time / warm_time
    busy = sum(
        cold_obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    )
    critical = cold_obs.registry.value(EXEC_CRITICAL_PATH_METRIC)

    apps = cold_result.analyzed + cold_result.broken
    print()
    print("class-cache speedup (analyze_app stage, %d apps): %.2fx "
          "(cold %.3fs -> warm %.3fs)" % (apps, speedup, cold_time,
                                          warm_time))
    print("class-cache hit rate: cold %.1f%%, warm %.1f%%"
          % (100 * cold_rate, 100 * warm_rate))

    bench_json["universe_size"] = 2_000
    bench_json["apps_analyzed"] = apps
    bench_json["stage_seconds"] = {
        "off": {name: round(value, 6) for name, value in
                sorted(off_stages.items())},
        "cold": {name: round(value, 6) for name, value in
                 sorted(cold_stages.items())},
        "warm": {name: round(value, 6) for name, value in
                 sorted(warm_stages.items())},
    }
    bench_json["class_cache"] = {
        "cold_hit_rate": round(cold_rate, 4),
        "warm_hit_rate": round(warm_rate, 4),
        "analysis_stage_speedup": round(speedup, 2),
    }
    bench_json["simulated_parallel_speedup"] = (
        round(busy / critical, 2) if critical else None
    )

    # Shared SDK code dominates the corpus: even a cold run dedupes more
    # than half of all class lookups, and a warm corpus-level cache
    # at least halves the per-APK analysis stage.
    assert cold_rate > 0.5
    assert warm_rate > 0.5
    assert speedup >= 2.0


def test_result_cache_absorbs_repeat_runs(exec_corpus):
    # Both pipelines default to the corpus-attached shared cache.
    cold_obs, cold = _run_sharded(exec_corpus, 4, 4, None)
    warm_obs, warm = _run_sharded(exec_corpus, 4, 4, None)

    cold_tasks = cold_obs.registry.label_values(EXEC_TASKS_METRIC)
    warm_tasks = warm_obs.registry.label_values(EXEC_TASKS_METRIC)
    assert cold_tasks.get(("cached",), 0) == 0
    # Every app is served from the cache on the repeat run; no worker
    # does any analysis work at all.
    assert set(warm_tasks) == {("cached",)}
    assert sum(
        warm_obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    ) == 0
    assert table2(warm).render() == table2(cold).render()
