"""Benchmark of the dynamic-pipeline throughput work.

Not a paper table — this tracks what the crawl sharding and the
compiled-script cache actually buy: the simulated parallel speedup of
the per-app crawl shards at 4 workers, the warm-vs-cold parse-stage
speedup of the corpus-wide parsed-script cache
(:func:`~repro.web.jsengine.default_script_cache`) over the real
injected-script corpus, and the site-template cache's
hit rate across app shards. The acceptance bars from DESIGN.md
§Dynamic throughput are asserted here too: >=2x on both speedups, with
:class:`~repro.dynamic.crawler.CrawlResult` and every exported non-exec
metric byte-identical to the serial, cache-off baseline.

The site count is overridable for CI smoke runs via
``REPRO_BENCH_SITES``; the JSON summary lands in ``BENCH_dynamic.json``
(override with ``REPRO_BENCH_JSON``).
"""

import os
import time

from _emit import bench_json_fixture
from repro.dynamic.apps import real_app_profiles, webview_iab_profiles
from repro.dynamic.crawler import AdbCrawler
from repro.exec import ExecConfig
from repro.netstack import default_site_template_cache
from repro.obs import (
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    Obs,
    SCRIPT_CACHE_HITS_METRIC,
    SCRIPT_CACHE_MISSES_METRIC,
    STAGE_SECONDS_METRIC,
)
from repro.web.jsengine import (
    _parse_for_run,
    default_script_cache,
    parse_js,
    script_cache_override,
)
from repro.web.sites import top_sites

SITES_ENV_VAR = "REPRO_BENCH_SITES"
SITES_DEFAULT = 20

#: Per-visit script executions to model when timing the parse stage:
#: every injected script runs once per (app, site) visit.
PARSE_ROUNDS = 40


def _site_count():
    raw = os.environ.get(SITES_ENV_VAR)
    try:
        value = int(raw) if raw else 0
    except ValueError:
        value = 0
    return value if value > 0 else SITES_DEFAULT


# The machine-readable summary lands in BENCH_dynamic.json (override
# with REPRO_BENCH_JSON); see benchmarks/_emit.py for the shared schema.
bench_json = bench_json_fixture("dynamic", site_count=_site_count)


def _run_crawl(max_workers, cache, clock=None):
    obs = Obs(clock=clock)
    crawler = AdbCrawler(
        webview_iab_profiles(), sites=top_sites(_site_count()), seed=7,
        obs=obs,
        exec_config=ExecConfig(max_workers=max_workers, chunk_size=1,
                               backend="inline",
                               cache=cache),
    )
    return obs, crawler.crawl()


def _visit_snapshot(result):
    return [(v.app.name, v.site.host, tuple(v.endpoints))
            for v in result.visits]


def _non_exec_metrics(obs):
    return [m for m in obs.registry.as_dict()["metrics"]
            if not m["name"].startswith("repro_exec_")]


def test_parallel_crawl_speedup(bench_json):
    """Sharded crawl at 4 workers: >=2x, byte-identical to serial."""
    serial_obs, serial = _run_crawl(1, cache=False)
    sharded_obs, sharded = _run_crawl(4, cache=True)

    busy = sum(
        sharded_obs.registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
    )
    critical = sharded_obs.registry.value(EXEC_CRITICAL_PATH_METRIC)
    assert critical > 0
    speedup = busy / critical

    hits = sharded_obs.registry.value(SCRIPT_CACHE_HITS_METRIC)
    misses = sharded_obs.registry.value(SCRIPT_CACHE_MISSES_METRIC)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    visits = len(sharded.visits)
    print()
    print("parallel crawl speedup at 4 workers: %.2fx "
          "(busy %g / critical path %g, %d visits)"
          % (speedup, busy, critical, visits))
    print("script-cache hit rate: %.1f%% (%d hits / %d misses)"
          % (100 * hit_rate, hits, misses))

    bench_json["visits"] = visits
    bench_json["parallel_crawl_speedup"] = round(speedup, 2)
    bench_json["script_cache"] = {
        "hits": int(hits),
        "misses": int(misses),
        "hit_rate": round(hit_rate, 4),
    }

    # The acceptance bars: >=2x simulated speedup, and the sharded,
    # cache-on crawl is byte-identical to the serial cache-off baseline
    # in both results and exported (non-exec-config) metrics.
    assert speedup >= 2.0
    assert _visit_snapshot(sharded) == _visit_snapshot(serial)
    assert _non_exec_metrics(sharded_obs) == _non_exec_metrics(serial_obs)
    for v_serial, v_sharded in zip(serial.visits, sharded.visits):
        assert (sharded.app_specific_hosts(v_sharded)
                == serial.app_specific_hosts(v_serial))


def test_per_stage_latencies(bench_json):
    """Real-clock stage latencies of a sharded crawl, for the JSON."""
    obs, result = _run_crawl(4, cache=True, clock=time.perf_counter)
    stages = {
        labels[0]: round(value, 6)
        for labels, value in
        obs.registry.label_values(STAGE_SECONDS_METRIC).items()
    }
    template_cache = default_site_template_cache()
    print()
    print("stage latencies (s): %s"
          % ", ".join("%s %.3f" % item for item in sorted(stages.items())))
    print("site-template cache: %d hits / %d misses"
          % (template_cache.hits, template_cache.misses))

    bench_json["stage_seconds"] = dict(sorted(stages.items()))
    bench_json["site_template_cache"] = {
        "hits": template_cache.hits,
        "misses": template_cache.misses,
        "hit_rate": round(template_cache.hit_rate, 4),
    }
    assert len(result.visits) == 10 * _site_count()
    assert stages.get("visit", 0) > 0


def test_script_cache_parse_speedup(bench_json):
    """Warm script cache vs raw parse over the injected-script corpus.

    Models the crawl's parse workload: every injected script is executed
    once per visit, so each source parses ``PARSE_ROUNDS`` times without
    the cache and once with it. Best-of-2 absorbs real-clock noise.
    """
    sources = [
        script.source
        for profile in real_app_profiles()
        for script in profile.injected_scripts
    ]
    assert sources

    def cold_pass():
        start = time.perf_counter()
        for _ in range(PARSE_ROUNDS):
            for source in sources:
                parse_js(source)
        return time.perf_counter() - start

    def warm_pass():
        default_script_cache().clear()
        start = time.perf_counter()
        with script_cache_override(True):
            for _ in range(PARSE_ROUNDS):
                for source in sources:
                    _parse_for_run(source)
        return time.perf_counter() - start

    cold = min(cold_pass() for _ in range(2))
    warm = min(warm_pass() for _ in range(2))
    cache = default_script_cache()
    speedup = cold / warm

    print()
    print("script-cache parse-stage speedup: %.2fx "
          "(cold %.4fs -> warm %.4fs, %d sources x %d rounds)"
          % (speedup, cold, warm, len(sources), PARSE_ROUNDS))

    bench_json["parse_stage"] = {
        "sources": len(sources),
        "rounds": PARSE_ROUNDS,
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "speedup": round(speedup, 2),
        "warm_hit_rate": round(cache.hit_rate, 4),
    }

    # Warm parses are digest lookups; one cold parse per distinct source.
    assert cache.misses == len(set(sources))
    assert speedup >= 2.0
