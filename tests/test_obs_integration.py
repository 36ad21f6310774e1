"""End-to-end observability: instrumented studies, reports, determinism."""

import hashlib
import json

import pytest

from repro.core import DynamicStudy, StaticStudy
from repro.dynamic.apps import webview_iab_profiles
from repro.exec import process_backend_available
from repro.netstack.netlog import NetLog, NetLogEventType
from repro.obs import (
    APPS_ANALYZED_METRIC,
    APPS_LISTED_METRIC,
    DROPS_METRIC,
    MetricsRegistry,
    Obs,
)

UNIVERSE = 600


def _run_study():
    study = StaticStudy(universe_size=UNIVERSE, seed=7)
    study.run()
    return study


class TestStaticStudyObservability:
    def test_run_report_contents(self):
        study = _run_study()
        report = study.run_report()
        assert "Static study run report" in report
        assert "Throughput" in report
        assert "apps/sec" in report
        assert "Drop taxonomy" in report
        assert "Stage time shares" in report
        # The report is markdown rendered via reporting/markdown.py.
        assert "| metric | value |" in report

    def test_per_stage_spans_recorded(self):
        study = _run_study()
        run = study.obs.tracer.find("run")
        assert run is not None
        names = {span.name for span in run.iter_spans()}
        for stage in ("list", "filter", "download", "decompile",
                      "callgraph", "traverse", "analyze_app"):
            assert stage in names, "missing %r span" % stage
        assert run.duration > 0
        # Labeling happens at aggregation time, inside the study's tracer.
        study.aggregator
        assert study.obs.tracer.find("label") is not None

    def test_drop_counters_sum_to_listed_minus_analyzed(self):
        study = _run_study()
        registry = study.obs.registry
        listed = registry.value(APPS_LISTED_METRIC)
        analyzed = registry.value(APPS_ANALYZED_METRIC)
        drops = registry.label_values(DROPS_METRIC)
        assert listed == study.result.androzoo_play_apps
        assert analyzed == study.result.analyzed
        assert sum(drops.values()) == listed - analyzed
        assert drops.get(("broken_apk",), 0) == study.result.broken

    def test_truncation_counts_as_drop(self):
        study = StaticStudy(universe_size=UNIVERSE, seed=7)
        study.run(max_apps=3)
        registry = study.obs.registry
        drops = registry.label_values(DROPS_METRIC)
        listed = registry.value(APPS_LISTED_METRIC)
        analyzed = registry.value(APPS_ANALYZED_METRIC)
        assert drops.get(("not_processed",), 0) > 0
        assert sum(drops.values()) == listed - analyzed

    def test_registry_round_trips_through_json(self):
        study = _run_study()
        registry = study.obs.registry
        rebuilt = MetricsRegistry.from_dict(
            json.loads(json.dumps(registry.as_dict())))
        assert rebuilt.as_dict() == registry.as_dict()

    def test_trace_tree_is_json_serializable(self):
        study = _run_study()
        tree = study.obs.tracer.to_dict()
        assert json.loads(json.dumps(tree)) == tree


class TestDeterminism:
    def test_same_seed_means_identical_results_and_metrics(
            self, cold_disk_cache):
        cold_disk_cache()
        first = _run_study()
        cold_disk_cache()
        second = _run_study()
        assert first.usage_shares() == second.usage_shares()
        assert first.result.funnel_dict() == second.result.funnel_dict()
        # Identical metric values — including tick-clock stage timings.
        assert (first.obs.registry.as_dict()
                == second.obs.registry.as_dict())
        assert first.run_report() == second.run_report()

    def test_isolated_registries_per_study(self):
        first = _run_study()
        before = json.dumps(first.obs.registry.as_dict())
        _run_study()
        assert json.dumps(first.obs.registry.as_dict()) == before


class TestDynamicStudyObservability:
    def test_crawl_spans_bridge_netlog_events(self):
        study = DynamicStudy(seed=7, site_count=4)
        study.crawl_top_sites(apps=webview_iab_profiles()[:2])
        crawl = study.obs.tracer.find("crawl")
        assert crawl is not None
        visits = [span for span in crawl.iter_spans()
                  if span.name == "visit"]
        assert visits
        bridged = [event for span in visits for event in span.events]
        assert bridged, "NetLog events should be attached to visit spans"
        event_names = {event["name"] for event in bridged}
        assert NetLogEventType.REQUEST_ALIVE.value in event_names
        assert all("url" in event["attributes"] for event in bridged)

    #: SHA-256 of the exported crawl trace (3 IAB apps x 4 sites, seed
    #: 7). The execute span names its backend and worker count, so the
    #: two backends export different, equally fixed, traces.
    PINNED_TRACES = {
        (1, "inline"): "ee48b4f24e3553620eaf3a2b1fae1747"
                       "47accc05507fc2ebdf671c190f481c27",
        (2, "process"): "2b8e371d20ef79139efbd3584e432ad4"
                        "8fca5c79a6b8bf2a0e638942d56c403d",
    }

    @pytest.mark.parametrize("workers,backend", sorted(PINNED_TRACES))
    def test_exported_crawl_trace_is_pinned(self, workers, backend):
        if backend == "process" and not process_backend_available():
            pytest.skip("process backend unavailable")
        study = DynamicStudy(seed=7, site_count=4, max_workers=workers,
                             exec_backend=backend)
        study.crawl_top_sites(apps=webview_iab_profiles()[:3])
        text = json.dumps([root.to_dict() for root in study.obs.tracer.roots],
                          sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.PINNED_TRACES[workers, backend])

    def test_run_report_counts_visits(self):
        study = DynamicStudy(seed=7, site_count=4)
        crawl = study.crawl_top_sites(apps=webview_iab_profiles()[:2])
        report = study.run_report()
        assert "Dynamic study run report" in report
        assert "visits/sec" in report
        assert study.obs.registry.value(
            "repro_crawl_visits_total", app="System WebView Shell"
        ) == 4
        assert len(crawl.visits) == 8


class TestPageLoadMetrics:
    def test_load_times_observed_per_loader(self):
        from repro.netstack.pageload import (
            LoaderKind,
            PAGELOAD_MS_METRIC,
            PageLoadModel,
        )
        from repro.web.sites import top_sites

        obs = Obs()
        model = PageLoadModel(seed=3, obs=obs)
        model.compare(top_sites(1)[0], trials=2)
        hist = obs.registry.get(PAGELOAD_MS_METRIC)
        for loader in LoaderKind:
            assert hist.labels(loader=loader.value).count == 2
        spans = [s for s in obs.tracer.iter_spans() if s.name == "pageload"]
        assert len(spans) == 2 * len(LoaderKind)


class TestNetLogRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        netlog = NetLog(source_id=3)
        netlog.log(NetLogEventType.REQUEST_ALIVE, "https://a.com/", 1.0)
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST,
                   "https://a.com/", 2.5, method="GET", depth=1)
        data = netlog.to_dict()
        # The export is JSON-clean (the trace exporter embeds it).
        assert json.loads(json.dumps(data)) == data
        rebuilt = NetLog.from_dict(data)
        assert rebuilt.source_id == 3
        assert len(rebuilt) == 2
        assert rebuilt.events[0].event_type == NetLogEventType.REQUEST_ALIVE
        assert rebuilt.events[1].details == {"method": "GET", "depth": 1}
        assert rebuilt.to_dict() == data

    def test_from_dict_defaults(self):
        rebuilt = NetLog.from_dict({"events": []})
        assert rebuilt.source_id == 0
        assert len(rebuilt) == 0
