"""Benchmark of the static endpoint-reconstruction subsystem.

Not a paper table — this guards the perf contracts the endpoint census
makes (DESIGN.md §16):

- **Caches buy real speed.** A warm outcome-tier run of the census must
  finish at least 2x faster than the cold run (it skips APK synthesis
  and summarization entirely); a summaries-only warm run (fresh outcome
  tier, warm per-class summaries) reports its corpus-wide hit rate.
- **Reconstruction is deterministic.** The census yields byte-identical
  endpoint lists at any worker count, either backend, any in-flight
  window and chunk size, and with the summary cache on or off; cache-on
  arms also agree on every endpoint counter.
- **Streaming scales.** A 10K+-app run on the streaming scheduler with
  a bounded in-flight window completes without the parent ever
  materializing an APK (the repository's lazy payloads stay lazy).

The streaming-arm app count is overridable for CI smoke runs via
``REPRO_BENCH_ENDPOINT_APPS``; the JSON summary lands in
``BENCH_endpoints.json`` (override with ``REPRO_BENCH_JSON``).
"""

import json
import os
import time

from _emit import bench_json_fixture
from repro.corpus import CorpusConfig, generate_corpus
from repro.endpoints import EndpointCensus
from repro.exec import ExecConfig
from repro.obs import (
    ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
    Obs,
)

APPS_ENV_VAR = "REPRO_BENCH_ENDPOINT_APPS"
APPS_DEFAULT = 10000

#: Universe backing the determinism / warm-cache arms.
SMALL_UNIVERSE = 400

#: The acceptance bar: a warm outcome tier beats the cold run by this.
MIN_WARM_SPEEDUP = 2.0


def _app_count():
    raw = os.environ.get(APPS_ENV_VAR)
    try:
        value = int(raw) if raw else 0
    except ValueError:
        value = 0
    return value if value > 0 else APPS_DEFAULT


bench_json = bench_json_fixture("endpoints", stream_apps=_app_count)


def _snapshot(result):
    """Canonical reconstruction bytes (JSON, not pickle: pickle memo
    references differ between shared and recomputed equal strings)."""
    return json.dumps([
        [a.package, [[r.url, r.partial, r.cleartext, r.credentials,
                      r.host, r.registrable_domain, r.owner_class, r.sdk]
                     for r in a.records]]
        for a in result.apps
    ], sort_keys=True)


def _endpoint_metrics(obs):
    """The census's own counters — equal across every cache-on arm.

    Span-derived timing (``repro_stage_seconds_total``) is excluded:
    worker-local summary caches make summarize tick counts depend on
    the shard-to-worker assignment, which varies with worker count.
    """
    return [m for m in obs.registry.as_dict()["metrics"]
            if m["name"].startswith("repro_endpoints_")]


def _run(corpus=None, analysis_cache=None, **exec_kwargs):
    if corpus is None:
        corpus = generate_corpus(CorpusConfig(universe_size=SMALL_UNIVERSE))
    # Arms are explicit about the cache so a REPRO_CACHE=0 environment
    # (the CI cache-off leg) cannot flip the cache-on arms.
    exec_kwargs.setdefault("cache", True)
    obs = Obs()
    census = EndpointCensus(corpus, obs=obs, cache=analysis_cache,
                            exec_config=ExecConfig(**exec_kwargs))
    start = time.perf_counter()
    result = census.run()
    elapsed = time.perf_counter() - start
    return census, result, elapsed, obs


def test_reconstruction_determinism(bench_json):
    """Byte-identical endpoints across workers/backends/window/cache."""
    serial, serial_result, serial_elapsed, serial_obs = _run(
        max_workers=1, backend="inline")
    reference = _snapshot(serial_result)

    arms = {
        "process_4w": dict(max_workers=4, backend="process"),
        "inline_4w": dict(max_workers=4, backend="inline"),
        "window1_process_4w": dict(max_workers=4, backend="process",
                                   window=1),
        "chunk3_process_4w": dict(max_workers=4, backend="process",
                                  chunk_size=3),
        "cache_off": dict(max_workers=1, cache=False),
        "cache_off_process_4w": dict(max_workers=4, backend="process",
                                     cache=False),
    }
    for name, kwargs in arms.items():
        _, result, _, obs = _run(**kwargs)
        assert _snapshot(result) == reference, name
        if kwargs.get("cache", True):
            # Cache-on arms agree on every endpoint counter too (the
            # summary accounting replays in selection order).
            assert (_endpoint_metrics(obs)
                    == _endpoint_metrics(serial_obs)), name

    print()
    print("determinism: %d apps, %d endpoints identical across %d arms"
          % (len(serial_result.apps), len(serial_result.records),
             len(arms) + 1))
    bench_json["determinism"] = {
        "apps": len(serial_result.apps),
        "endpoints": len(serial_result.records),
        "arms": sorted(arms) + ["serial"],
        "serial_seconds": round(serial_elapsed, 6),
    }


def test_warm_cache_speedup(bench_json):
    """Warm outcome tier: >=2x faster, identical bytes; summary arm rate."""
    corpus = generate_corpus(CorpusConfig(universe_size=SMALL_UNIVERSE))
    _, cold_result, cold_elapsed, _ = _run(corpus=corpus, max_workers=1,
                                           backend="inline")
    warm_census, warm_result, warm_elapsed, _ = _run(
        corpus=corpus, max_workers=1, backend="inline")
    assert _snapshot(warm_result) == _snapshot(cold_result)
    assert warm_census._cache_hits.value == len(warm_census.apps)
    speedup = cold_elapsed / warm_elapsed if warm_elapsed else float("inf")

    # Summaries-only arm: fresh outcome tier over the warmed per-class
    # summary tier — every class digest hits, no app outcome does.
    from repro.exec import AnalysisCache

    summaries_cache = AnalysisCache(
        summaries=corpus.analysis_cache.summaries)
    _, summary_result, summary_elapsed, summary_obs = _run(
        corpus=corpus, analysis_cache=summaries_cache, max_workers=1,
        backend="inline")
    assert _snapshot(summary_result) == _snapshot(cold_result)
    registry = summary_obs.registry
    hits = registry.get(ENDPOINTS_SUMMARY_CACHE_HITS_METRIC).value
    misses = registry.get(ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC).value
    hit_rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0

    print()
    print("warm outcome tier: %.2fx (cold %.3fs -> warm %.3fs)"
          % (speedup, cold_elapsed, warm_elapsed))
    print("summaries-only arm: %.3fs, %.1f%% summary hit rate"
          % (summary_elapsed, hit_rate))
    bench_json["warm_cache"] = {
        "cold_seconds": round(cold_elapsed, 6),
        "warm_seconds": round(warm_elapsed, 6),
        "speedup": round(speedup, 2),
        "bar": MIN_WARM_SPEEDUP,
        "summaries_only_seconds": round(summary_elapsed, 6),
        "summary_hit_rate": round(hit_rate, 1),
    }
    assert speedup >= MIN_WARM_SPEEDUP
    assert hits > 0 and hit_rate == 100.0


def test_streaming_scale(bench_json):
    """10K+-app streaming census, bounded window, no parent APK bytes."""
    count = _app_count()
    corpus = generate_corpus(CorpusConfig(universe_size=count))
    apps = corpus.specs[:count]
    lazy_before = {sha for sha, payload
                   in corpus.repository._payloads.items()
                   if callable(payload)}
    obs = Obs()
    census = EndpointCensus(
        corpus, apps=apps, obs=obs,
        exec_config=ExecConfig(max_workers=4, backend="process",
                               window=4),
    )
    start = time.perf_counter()
    result = census.run()
    elapsed = time.perf_counter() - start

    lazy_after = {sha for sha, payload
                  in corpus.repository._payloads.items()
                  if callable(payload)}
    assert corpus.repository.downloads_served == 0
    assert lazy_after == lazy_before

    rate = len(apps) / elapsed if elapsed else 0.0
    print()
    print("streaming: %d apps in %.1fs (%.0f apps/s), %d endpoints"
          % (len(apps), elapsed, rate, len(result.records)))
    bench_json["streaming"] = {
        "apps": len(apps),
        "reconstructed": len(result.apps),
        "endpoints": len(result.records),
        "seconds": round(elapsed, 6),
        "apps_per_second": round(rate, 1),
        "window": 4,
    }
    assert len(result.apps) > 0
    if not os.environ.get(APPS_ENV_VAR):
        assert len(apps) >= APPS_DEFAULT
