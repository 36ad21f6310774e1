"""Benchmark of the injection-impact subsystem.

Not a paper table — this guards the two contracts the taint layer and
the severity census make (DESIGN.md §15):

- **Taint is cheap and invisible.** The instrumented JS evaluator must
  stay within 1.5x of the uninstrumented wall clock on the crawl's JS
  stage, and a taint-on crawl must produce byte-identical visits and
  non-exec metrics to a taint-off one — the instrumentation observes,
  it never perturbs.
- **The census is deterministic.** The top-1K severity census yields
  byte-identical findings at any worker count and on either exec
  backend; the SDK capability ranking lands in the JSON.

The site count is overridable for CI smoke runs via
``REPRO_BENCH_SITES``; the JSON summary lands in ``BENCH_impact.json``
(override with ``REPRO_BENCH_JSON``).
"""

import os
import time

from _emit import bench_json_fixture
from repro.dynamic.apps import webview_iab_profiles
from repro.dynamic.crawler import AdbCrawler
from repro.dynamic.manual_study import ManualStudy
from repro.exec import ExecConfig
from repro.impact import ImpactCensus
from repro.impact.severity import SEVERITY_EXFILTRATE, SEVERITY_ORDER
from repro.obs import Obs
from repro.web.jsengine import taint_override
from repro.web.sites import top_sites

SITES_ENV_VAR = "REPRO_BENCH_SITES"
SITES_DEFAULT = 20

#: The acceptance bar: taint-instrumented execution stays within this
#: factor of the uninstrumented wall clock.
MAX_TAINT_OVERHEAD = 1.5


def _site_count():
    raw = os.environ.get(SITES_ENV_VAR)
    try:
        value = int(raw) if raw else 0
    except ValueError:
        value = 0
    return value if value > 0 else SITES_DEFAULT


# The machine-readable summary lands in BENCH_impact.json (override
# with REPRO_BENCH_JSON); see benchmarks/_emit.py for the shared schema.
bench_json = bench_json_fixture("impact", site_count=_site_count)


def _run_crawl(taint):
    """One inline, cache-off crawl with the taint layer forced on/off.

    The script cache is off in both arms so the comparison times the
    evaluator itself, not digest lookups; inline keeps the contextvar
    override visible to every shard.
    """
    obs = Obs()
    crawler = AdbCrawler(
        webview_iab_profiles(), sites=top_sites(_site_count()), seed=7,
        obs=obs,
        exec_config=ExecConfig(max_workers=4, chunk_size=1,
                               backend="inline", cache=False),
    )
    with taint_override(taint):
        start = time.perf_counter()
        result = crawler.crawl()
        elapsed = time.perf_counter() - start
    return obs, result, elapsed


def _visit_snapshot(result):
    return [(v.app.name, v.site.host, tuple(v.endpoints))
            for v in result.visits]


def _non_exec_metrics(obs):
    return [m for m in obs.registry.as_dict()["metrics"]
            if not m["name"].startswith("repro_exec_")]


def _finding_snapshot(result):
    return [
        (f.app, f.sdk, f.bridge, f.attacker, f.severity, f.readable,
         f.invocable, f.flow_count, f.methods, f.cleartext)
        for f in result.findings
    ]


def _run_census(max_workers, backend="inline"):
    obs = Obs()
    census = ImpactCensus(
        seed=0, obs=obs,
        exec_config=ExecConfig(max_workers=max_workers, chunk_size=1,
                               backend=backend),
    )
    start = time.perf_counter()
    result = census.run()
    elapsed = time.perf_counter() - start
    return obs, result, elapsed


def test_taint_execution_overhead(bench_json):
    """Taint on: <=1.5x the crawl's JS stage, byte-identical outputs."""
    # Arms interleave (plain, taint, plain, taint, ...) so machine-load
    # drift hits both equally; min-of-3 absorbs the remaining noise.
    plain_runs, taint_runs = [], []
    for _ in range(3):
        plain_runs.append(_run_crawl(taint=False))
        taint_runs.append(_run_crawl(taint=True))
    plain = min(elapsed for _, _, elapsed in plain_runs)
    tainted = min(elapsed for _, _, elapsed in taint_runs)
    overhead = tainted / plain

    print()
    print("taint execution overhead: %.2fx "
          "(plain %.4fs -> tainted %.4fs, %d visits)"
          % (overhead, plain, tainted, len(plain_runs[0][1].visits)))

    bench_json["taint_overhead"] = {
        "plain_seconds": round(plain, 6),
        "tainted_seconds": round(tainted, 6),
        "overhead": round(overhead, 2),
        "bar": MAX_TAINT_OVERHEAD,
    }

    # The acceptance bars: bounded overhead, and the instrumented crawl
    # is byte-identical to the uninstrumented one in both results and
    # exported (non-exec-config) metrics.
    assert overhead <= MAX_TAINT_OVERHEAD
    plain_obs, plain_result, _ = plain_runs[0]
    taint_obs, taint_result, _ = taint_runs[0]
    assert _visit_snapshot(taint_result) == _visit_snapshot(plain_result)
    assert _non_exec_metrics(taint_obs) == _non_exec_metrics(plain_obs)


def test_census_determinism_and_ranking(bench_json):
    """Top-1K census: identical bytes across workers/backends; rank SDKs."""
    serial_obs, serial, serial_elapsed = _run_census(1)
    sharded_obs, sharded, _ = _run_census(4)
    pooled_obs, pooled, _ = _run_census(2, backend="process")

    snapshot = _finding_snapshot(serial)
    assert _finding_snapshot(sharded) == snapshot
    assert _finding_snapshot(pooled) == snapshot
    assert _non_exec_metrics(sharded_obs) == _non_exec_metrics(serial_obs)
    assert _non_exec_metrics(pooled_obs) == _non_exec_metrics(serial_obs)

    ranking = serial.sdk_capability_ranking()
    counts = serial.severity_counts()
    apps = len(ManualStudy(seed=0).apps())
    print()
    print("census: %d apps, %d findings in %.3fs (serial)"
          % (apps, len(snapshot), serial_elapsed))
    for position, (sdk, reached, per_severity) in enumerate(ranking,
                                                            start=1):
        print("  #%d %-24s %-12s %s" % (
            position, sdk, reached,
            " ".join("%s=%d" % (s, per_severity[s])
                     for s in SEVERITY_ORDER),
        ))

    bench_json["census"] = {
        "apps": apps,
        "findings": len(snapshot),
        "serial_seconds": round(serial_elapsed, 6),
        "severity_counts": {
            "%s/%s" % key: count for key, count in counts.items()
        },
    }
    bench_json["capability_ranking"] = [
        {"sdk": sdk, "capability": reached,
         "counts": dict(per_severity)}
        for sdk, reached, per_severity in ranking
    ]

    assert apps == 1000
    assert ranking
    # The census's point: at least one SDK reaches full exfiltration.
    assert ranking[0][1] == SEVERITY_EXFILTRATE
