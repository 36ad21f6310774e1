"""Tests for the sharded crawl (repro.dynamic.crawler over repro.exec),
the compiled-script cache, and the site-fetch memoization layer.

The load-bearing property throughout: CrawlResult, the trace tree, and
every exported metric are byte-identical at any worker count, backend,
and script-cache setting (DESIGN.md §Dynamic throughput).
"""

import pickle

import pytest

import repro.dynamic.crawler as crawler_module
import repro.web.jsengine as jsengine
from repro.errors import NetworkError
from repro.core.study import DynamicStudy
from repro.dynamic.apps import real_app_profiles, webview_iab_profiles
from repro.dynamic.crawler import AdbCrawler, SYSTEM_WEBVIEW_SHELL
from repro.exec import (
    CACHE_DIR_ENV_VAR,
    ExecConfig,
    MAX_ENTRIES_ENV_VAR,
    PARSED_SCRIPT_KIND,
    process_backend_available,
)
from repro.netstack import SiteTemplateCache, default_site_template_cache
from repro.netstack.network import Network
from repro.obs import Obs
from repro.web.jsengine import (
    CompiledProgram,
    JsInterpreter,
    _parse_for_run,
    default_script_cache,
    parse_js,
    record_script_events,
    script_cache_override,
    script_digest,
    taint_override,
)
from repro.web.sites import top_sites
from repro.web.urls import parse_url, parse_url_cached


def run_crawl(workers=1, cache=None, backend=None, progress=None,
              app_names=("LinkedIn", "Kik"), site_count=6, seed=11):
    profiles = {p.name: p for p in real_app_profiles()}
    obs = Obs()
    crawler = AdbCrawler(
        [profiles[name] for name in app_names],
        sites=top_sites(site_count), seed=seed, obs=obs,
        exec_config=ExecConfig(max_workers=workers, chunk_size=1,
                               backend=backend, cache=cache),
    )
    result = crawler.crawl(progress=progress)
    return crawler, result, obs


def visit_snapshot(result):
    return [(v.app.name, v.site.host, tuple(v.endpoints))
            for v in result.visits]


def metric_dicts(obs, exclude_exec=False):
    metrics = obs.registry.as_dict()["metrics"]
    if exclude_exec:
        # The exec gauges intentionally encode the worker/backend
        # configuration; everything else must not depend on it.
        metrics = [m for m in metrics
                   if not m["name"].startswith("repro_exec_")]
    return metrics


class TestShardedCrawlDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_crawl(workers=1, cache=False)

    def test_visits_identical_across_workers(self, serial):
        _, result1, _ = serial
        _, result4, _ = run_crawl(workers=4, cache=False)
        assert visit_snapshot(result4) == visit_snapshot(result1)

    def test_visits_identical_across_cache_settings(self, serial):
        _, cold, _ = serial
        _, warm, _ = run_crawl(workers=1, cache=True)
        assert visit_snapshot(warm) == visit_snapshot(cold)

    def test_registry_identical_across_cache_settings(self):
        _, _, obs_off = run_crawl(workers=1, cache=False)
        _, _, obs_on = run_crawl(workers=1, cache=True)
        assert metric_dicts(obs_on) == metric_dicts(obs_off)

    def test_registry_identical_across_workers_modulo_exec(self, serial):
        _, _, obs1 = serial
        _, _, obs4 = run_crawl(workers=4, cache=False)
        assert (metric_dicts(obs4, exclude_exec=True)
                == metric_dicts(obs1, exclude_exec=True))

    @pytest.mark.skipif(not process_backend_available(),
                        reason="process backend unavailable")
    def test_process_backend_matches_inline(self, serial):
        _, result1, obs1 = serial
        _, result_p, obs_p = run_crawl(workers=4, cache=False,
                                       backend="process")
        _, result_i, obs_i = run_crawl(workers=4, cache=False,
                                       backend="inline")
        assert visit_snapshot(result_p) == visit_snapshot(result_i)
        assert visit_snapshot(result_p) == visit_snapshot(result1)
        # Backends differ only in the backend-info gauge itself.
        strip = lambda metrics: [m for m in metrics
                                 if m["name"] != "repro_exec_backend_info"]
        assert (strip(metric_dicts(obs_p)) == strip(metric_dicts(obs_i)))

    def test_taint_on_crawl_identical_to_plain(self, serial):
        # The taint layer observes and never perturbs. Inline, so the
        # context-local override reaches every shard.
        _, plain, plain_obs = serial
        with taint_override(True):
            _, tainted, taint_obs = run_crawl(workers=1, cache=False,
                                              backend="inline")
        assert visit_snapshot(tainted) == visit_snapshot(plain)
        assert (metric_dicts(taint_obs, exclude_exec=True)
                == metric_dicts(plain_obs, exclude_exec=True))

    def test_baseline_differencing_matches_serial(self, serial):
        _, result1, _ = serial
        _, result4, _ = run_crawl(workers=4, cache=True)
        for v1, v4 in zip(result1.visits, result4.visits):
            assert (result4.app_specific_hosts(v4)
                    == result1.app_specific_hosts(v1))

    def test_study_facade_threads_exec_config(self):
        study = DynamicStudy(seed=7, site_count=4, obs=Obs(), max_workers=4)
        crawl = study.crawl_top_sites(apps=webview_iab_profiles()[:2])
        assert len(crawl.visits) == 2 * 4
        report = study.run_report()
        assert "Dynamic execution" in report
        assert "script-cache hit rate" in report


class TestShardedCrawlMechanics:
    def test_progress_hook_sees_every_shard(self):
        outcomes = []
        crawler, result, _ = run_crawl(workers=4, progress=outcomes.append)
        # One ShardOutcome per app plus the baseline shell.
        assert len(outcomes) == 3
        assert ({o.package for o in outcomes}
                == {a.package for a in crawler.apps}
                | {SYSTEM_WEBVIEW_SHELL.package})

    def test_worker_attr_replayed_onto_spans(self):
        _, _, obs = run_crawl(workers=4)
        crawl_root = obs.tracer.roots[0]
        app_spans = [s for s in crawl_root.iter_spans()
                     if s.name == "crawl_app"]
        assert app_spans
        assert all(s.attributes["worker"].startswith("w")
                   for s in app_spans)

    def test_adb_transcript_bounded(self):
        profiles = {p.name: p for p in real_app_profiles()}
        crawler = AdbCrawler([profiles["Snapchat"]], sites=top_sites(4),
                             seed=3, include_baseline=False, obs=Obs(),
                             adb_log_limit=5)
        crawler.crawl()
        assert len(crawler.adb_commands) == 5
        # The retained tail ends with the last visit's teardown.
        assert crawler.adb_commands[-1].startswith("am force-stop")

    def test_crawl_metrics_match_visit_counts(self):
        _, result, obs = run_crawl(workers=1)
        visits = obs.registry.label_values("repro_crawl_visits_total")
        assert sum(visits.values()) == len(result.visits) + 6  # + baseline
        assert visits[("LinkedIn",)] == 6


class TestCrawlResultMemoization:
    def test_hosts_first_seen_order(self):
        visit = crawler_module.SiteVisit(
            SYSTEM_WEBVIEW_SHELL, top_sites(1)[0],
            ["https://b.example/x", "https://a.example/",
             "https://b.example/y", "https://c.example/"],
        )
        assert visit.hosts() == ["b.example", "a.example", "c.example"]

    def test_classify_called_once_per_host_and_url(self, monkeypatch):
        calls = []
        real = crawler_module.classify_endpoint

        def counting(host, intended_url=None):
            calls.append((host, intended_url))
            return real(host, intended_url=intended_url)

        monkeypatch.setattr(crawler_module, "classify_endpoint", counting)
        _, result, _ = run_crawl(app_names=("Kik",), site_count=4)
        result.endpoint_summary("Kik")
        first_pass = len(calls)
        assert first_pass == len(set(calls))
        result.endpoint_summary("Kik")
        assert len(calls) == first_pass


@pytest.fixture
def script_cache(monkeypatch):
    """A fresh in-memory process-wide script cache, created on first use."""
    monkeypatch.setattr(jsengine, "_DEFAULT_SCRIPT_CACHE", None)
    monkeypatch.delenv(MAX_ENTRIES_ENV_VAR, raising=False)
    monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)


def parse_cached(source):
    """Parse through the process-wide cache, as an interpreter run does."""
    with script_cache_override(True):
        return _parse_for_run(source)


@pytest.mark.usefixtures("script_cache")
class TestScriptCache:
    def test_miss_then_hit(self):
        source = "var x = 1 + 2;"
        program = parse_cached(source)
        cache = default_script_cache()
        assert cache.kind == PARSED_SCRIPT_KIND
        assert cache.misses == 1 and cache.hits == 0
        assert parse_cached(source) is program
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_sources_distinct_entries(self):
        a = parse_cached("var a = 1;")
        b = parse_cached("var b = 2;")
        assert a != b
        cache = default_script_cache()
        assert cache.misses == 2 and len(cache) == 2

    def test_lru_eviction_accounted(self, monkeypatch):
        monkeypatch.setenv(MAX_ENTRIES_ENV_VAR, "1")
        parse_cached("var a = 1;")
        parse_cached("var b = 2;")
        cache = default_script_cache()
        assert cache.evictions == 1
        parse_cached("var a = 1;")     # evicted, so a miss again
        assert cache.misses == 3 and cache.hits == 0

    def test_clear_resets_accounting(self):
        parse_cached("var a = 1;")
        parse_cached("var a = 1;")
        cache = default_script_cache()
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)

    def test_digest_is_stable_content_key(self):
        assert script_digest("var x;") == script_digest("var x;")
        assert script_digest("var x;") != script_digest("var y;")

    def test_cached_program_equals_fresh_parse(self):
        source = "function f(a) { return a * 2; } f(21);"
        assert parse_cached(source) == parse_js(source)
        assert parse_cached(source) == parse_js(source)

    def test_program_survives_disk_layer(self, monkeypatch, tmp_path):
        # The disk layer pickles every value; a fresh memory tier over
        # the same directory must load the script back and run it alike.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        source = "function sq(x) { return x * x; } var t = 0; " \
                 "for (var i = 0; i < 4; i++) { t += sq(i); } t;"
        runs = []
        for _ in range(2):
            monkeypatch.setattr(jsengine, "_DEFAULT_SCRIPT_CACHE", None)
            interpreter = JsInterpreter()
            with script_cache_override(True):
                result = interpreter.run(source)
            cache = default_script_cache()
            runs.append((result, interpreter.steps, cache.hits, cache.misses))
        assert len(list(tmp_path.glob("js_*.pkl"))) == 1
        assert runs[0] == (14.0, runs[1][1], 0, 1)
        assert runs[1] == (14.0, runs[0][1], 1, 0)

    def test_bare_ast_on_disk_is_compiled_on_load(self, monkeypatch,
                                                  tmp_path):
        # A cache directory filled when the cache held bare parse trees
        # (plain tuples) must still run: the hit is compiled and stored.
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        source = "function sq(x) { return x * x; } var t = 0; " \
                 "for (var i = 0; i < 4; i++) { t += sq(i); } t;"
        with script_cache_override(False):
            fresh = JsInterpreter()
            expected = (fresh.run(source), fresh.steps)
        path = tmp_path / ("js_%s.pkl" % script_digest(source))
        path.write_bytes(pickle.dumps(parse_js(source)))
        interpreter = JsInterpreter()
        with script_cache_override(True):
            result = interpreter.run(source)
        cache = default_script_cache()
        assert (result, interpreter.steps) == expected == (14.0, 79)
        assert (cache.hits, cache.misses) == (1, 0)
        program = cache.get(script_digest(source))
        assert isinstance(program, CompiledProgram)
        assert program == parse_js(source)
        assert type(pickle.loads(path.read_bytes())) is CompiledProgram

    def test_interpreter_result_identical_with_and_without_cache(self):
        source = "var total = 0; for (var i = 0; i < 5; i++) " \
                 "{ total += i; } total;"
        with script_cache_override(True):
            warm1 = JsInterpreter().run(source)
            warm2 = JsInterpreter().run(source)
        with script_cache_override(False):
            cold = JsInterpreter().run(source)
        assert warm1 == warm2 == cold

    def test_events_recorded_regardless_of_cache_setting(self):
        source = "var q = 'events';"
        digest = script_digest(source)
        for enabled in (True, False):
            events = []
            with script_cache_override(enabled), \
                    record_script_events(events):
                JsInterpreter().run(source)
                JsInterpreter().run(source)
            assert [d for d, _ in events] == [digest, digest]
            assert all(cost > 0 for _, cost in events)


class TestSiteFetchMemoization:
    def test_template_shared_across_networks(self):
        default_site_template_cache().clear()
        sites = top_sites(3)
        net_a = Network(seed=5, strict=False)
        net_b = Network(seed=5, strict=False)
        for site in sites:
            net_a.register_site(site)
            net_b.register_site(site)
        cache = default_site_template_cache()
        assert cache.misses == len(sites)
        assert cache.hits == len(sites)

    def test_registered_responses_identical_to_fresh_build(self):
        default_site_template_cache().clear()
        site = top_sites(1)[0]
        url = "https://%s/" % site.host

        def fetch_body():
            network = Network(seed=9, strict=False)
            network.register_site(site)
            return network.fetch(url).body

        assert fetch_body() == fetch_body()

    def test_cache_bound_respected(self):
        cache = SiteTemplateCache(max_entries=2)
        for site in top_sites(4):
            cache.template_for(site, page_html="<html></html>")
        assert len(cache) == 2

    def test_parse_url_cached_matches_parse_url(self):
        url = "https://example.com/a/b?c=d"
        cached = parse_url_cached(url)
        assert cached == parse_url(url)
        assert parse_url_cached(url) is cached

    def test_parse_url_cached_rejects_bad_urls(self):
        with pytest.raises(NetworkError):
            parse_url_cached("not a url")
