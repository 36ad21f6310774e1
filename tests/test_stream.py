"""Tests for the streaming DAG scheduler (repro.exec.stream).

Covers the scheduler machinery itself (ordered delivery, the schedule
replay, steal/repair/quarantine under injected worker death) and the
study-level contract on the one executor: one inline worker and N
process workers give byte-identical results, a raising run closes its
spans, worker death is quarantined in every sharded workload, and a
finished run is freed by reference counting alone.
"""

import gc
import multiprocessing
import os

import pytest

import repro.dynamic.crawler as crawler_module
import repro.endpoints.census as endpoints_module
import repro.impact.census as impact_module
import repro.static_analysis.pipeline as pipeline_module
from repro.corpus import CorpusConfig, generate_corpus
from repro.dynamic.apps import real_app_profiles
from repro.dynamic.crawler import AdbCrawler
from repro.dynamic.manual_study import ManualStudy
from repro.endpoints import EndpointCensus
from repro.errors import WorkerLostError
from repro.exec import (
    AnalysisCache,
    BACKEND_PROCESS,
    ExecConfig,
    ExecConfigError,
    OrderedFlush,
    StreamScheduler,
    StreamStage,
    TaskOutcome,
    WORKER_LOST_SLUG,
    process_backend_available,
    simulate_stream,
)
from repro.impact import ImpactCensus
from repro.obs import (
    DROPS_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    Obs,
    Span,
)
from repro.static_analysis import StaticAnalysisPipeline
from repro.web.sites import top_sites

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="process pools unavailable on this platform",
)


class TestOrderedFlush:
    def test_in_order_pushes_flush_immediately(self):
        seen = []
        flush = OrderedFlush(lambda i, v: seen.append((i, v)))
        flush.push(0, "a")
        flush.push(1, "b")
        assert seen == [(0, "a"), (1, "b")]

    def test_out_of_order_pushes_buffer_until_prefix_completes(self):
        seen = []
        flush = OrderedFlush(lambda i, v: seen.append(i))
        flush.push(2, "c")
        flush.push(1, "b")
        assert seen == []
        flush.push(0, "a")
        assert seen == [0, 1, 2]


class TestSimulateStream:
    def test_serial_equals_total_work(self):
        schedule = simulate_stream([3.0, 1.0, 2.0], 1, 1)
        assert schedule.critical_path == 6.0
        assert schedule.steals == 0

    def test_stealing_hides_the_straggler_tail(self):
        # One giant chunk plus uniform filler: the greedy FIFO replay
        # serializes behind the straggler, stealing does not.
        costs = [100.0] + [1.0] * 28
        greedy = simulate_stream(costs, 4, 4, steal=False)
        streamed = simulate_stream(costs, 4, 4)
        assert streamed.steals > 0
        assert streamed.critical_path < greedy.critical_path

    def test_deterministic_across_calls(self):
        costs = [float((i * 7) % 13 + 1) for i in range(40)]
        first = simulate_stream(costs, 3, 4)
        second = simulate_stream(costs, 3, 4)
        assert first.assignments == second.assignments
        assert first.critical_path == second.critical_path
        assert first.steals == second.steals

    def test_empty(self):
        schedule = simulate_stream([], 4, 2)
        assert schedule.critical_path == 0.0
        assert schedule.assignments == []

    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ExecConfigError):
            simulate_stream([1.0], 0, 1)


def _tag(task):
    return ("done", task)


class TestStreamSchedulerInline:
    def test_ordered_consumers_see_task_order(self):
        stage = StreamStage("s", list(range(10)), _tag)
        order = []
        stage.consume_ordered(lambda i, out: order.append(i))
        scheduler = StreamScheduler(ExecConfig(max_workers=1, chunk_size=3))
        results = scheduler.run(stage)
        assert order == list(range(10))
        assert results == [("done", t) for t in range(10)]

    def test_sinks_see_every_outcome(self):
        stage = StreamStage("s", [1, 2, 3], _tag)
        seen = []
        stage.consume(seen.append)
        stage.consume(None)  # Nones are ignored, like chain_results
        StreamScheduler(ExecConfig(max_workers=1)).run(stage)
        assert sorted(seen) == [("done", 1), ("done", 2), ("done", 3)]

    def test_per_event_context_wraps_tasks_and_deliveries(self):
        import contextlib

        entries = []

        @contextlib.contextmanager
        def ctx():
            entries.append("enter")
            yield

        stage = StreamStage("s", [1, 2], _tag, context=ctx)
        stage.consume_ordered(lambda i, out: None)
        StreamScheduler(ExecConfig(max_workers=1)).run(stage)
        # One enter per task execution plus one per ordered flush batch.
        assert len(entries) >= 2

    def test_replay_uses_the_plans_chunk_size(self):
        # Two simulated workers on the inline backend: worker attribution
        # and the exec metrics come from replaying the measured costs in
        # the plan's own chunk size, whatever the live run did.
        corpus = generate_corpus(CorpusConfig(universe_size=2_500, seed=4242))
        config = ExecConfig(max_workers=2, chunk_size=3, backend="inline")
        pipeline = StaticAnalysisPipeline(corpus, obs=Obs(),
                                          exec_config=config,
                                          cache=AnalysisCache())
        outcomes = []
        pipeline.checkpoint = outcomes.append
        pipeline.run(max_apps=20)
        schedule = simulate_stream([o.cost for o in outcomes], 2, 3)
        assert outcomes
        assert {o.worker for o in outcomes} <= {0, 1}
        assert [o.worker for o in outcomes] == schedule.assignments
        registry = pipeline.obs.registry
        assert registry.value(EXEC_CRITICAL_PATH_METRIC) == (
            schedule.critical_path)
        assert registry.value(EXEC_STEALS_METRIC) == schedule.steals


# -- fault injection ----------------------------------------------------------
#
# os._exit skips all exception machinery, so the executor only sees a
# vanished worker (a broken pool). The parent-process guard keeps the
# same call harmless if it ever runs inline.

_FLAG_DIR = {"path": None}


def _die_once(value):
    flag = os.path.join(_FLAG_DIR["path"], "died-%d" % value)
    if (value == 5 and multiprocessing.parent_process() is not None
            and not os.path.exists(flag)):
        open(flag, "w").close()
        os._exit(1)
    return value * value


def _die_always(value):
    if value == 7 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * value


@needs_processes
class TestStreamSchedulerFaults:
    def config(self):
        return ExecConfig(max_workers=2, chunk_size=2,
                          backend=BACKEND_PROCESS, max_attempts=2)

    def test_transient_worker_death_is_repaired(self, tmp_path):
        _FLAG_DIR["path"] = str(tmp_path)
        stage = StreamStage("s", list(range(12)), _die_once)
        scheduler = StreamScheduler(self.config())
        results = scheduler.run(stage)
        assert results == [v * v for v in range(12)]
        assert scheduler.repaired_chunks >= 1
        assert scheduler.quarantined_tasks == 0

    def test_poisoned_task_quarantined_innocents_survive(self):
        stage = StreamStage("s", list(range(12)), _die_always,
                            on_lost=lambda task: ("lost", task))
        scheduler = StreamScheduler(self.config())
        results = scheduler.run(stage)
        # Exactly the poisoned task is quarantined; every innocent task
        # that shared a chunk or a pool with it still delivers.
        assert results[7] == ("lost", 7)
        assert [r for i, r in enumerate(results) if i != 7] == [
            v * v for v in range(12) if v != 7
        ]
        assert scheduler.quarantined_tasks == 1

    def test_quarantine_without_on_lost_raises(self):
        stage = StreamStage("s", list(range(8)), _die_always)
        with pytest.raises(WorkerLostError):
            StreamScheduler(self.config()).run(stage)


# -- study-level byte-identity -----------------------------------------------


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


def _make_pipeline(workers, backend="inline", **config):
    corpus = generate_corpus(CorpusConfig(universe_size=2_500, seed=4242))
    config = ExecConfig(max_workers=workers, chunk_size=4, backend=backend,
                        **config)
    return StaticAnalysisPipeline(corpus, obs=Obs(), exec_config=config)


def _make_crawler(workers, backend="inline"):
    profiles = {p.name: p for p in real_app_profiles()}
    config = ExecConfig(max_workers=workers, chunk_size=1, backend=backend)
    return AdbCrawler([profiles["LinkedIn"], profiles["Kik"]],
                      sites=top_sites(4), seed=11, obs=Obs(),
                      exec_config=config)


class TestStreamingByteIdentity:
    @needs_processes
    def test_static_pipeline_inline_matches_process(self):
        inline = _make_pipeline(1).run(max_apps=30)
        pooled = _make_pipeline(3, BACKEND_PROCESS).run(max_apps=30)
        assert _study_digest(pooled) == _study_digest(inline)
        assert pooled.funnel_dict() == inline.funnel_dict()

    @needs_processes
    def test_static_pipeline_matches_on_process_backend(self):
        # One chunk in flight: completions arrive strictly in order.
        inline = _make_pipeline(1).run(max_apps=20)
        pooled = _make_pipeline(2, BACKEND_PROCESS, window=1).run(
            max_apps=20)
        assert _study_digest(pooled) == _study_digest(inline)

    @needs_processes
    def test_crawler_inline_matches_process(self):
        inline = _make_crawler(1).crawl()
        pooled = _make_crawler(3, BACKEND_PROCESS).crawl()
        assert _crawl_digest(pooled) == _crawl_digest(inline)

    def test_streaming_run_report_shows_scheduler_rows(self):
        pipeline = _make_pipeline(3)
        pipeline.run(max_apps=20)
        report = pipeline.obs.run_report("t")
        assert "work steals" in report
        assert "chunks repaired" in report
        assert "tasks quarantined" in report


class TestPreparedIngestRows:
    def test_prepared_ingest_rows_match_barrier(self, tmp_path):
        import sqlite3

        from repro.core.study import StaticStudy
        from repro.results.store import ResultsStore
        from repro.util import fingerprint_token

        def rows(path):
            conn = sqlite3.connect(path)
            try:
                return {
                    table: sorted(map(tuple, conn.execute(
                        "SELECT * FROM %s" % table)))
                    for table in ("outcomes", "sdk_labels", "method_calls")
                }
            finally:
                conn.close()

        # Rows labeled en route as outcomes land...
        prepared = str(tmp_path / "prepared.db")
        study = StaticStudy(universe_size=2_500, seed=77, obs=Obs(),
                            max_workers=2, chunk_size=4,
                            exec_backend="inline",
                            results_store=ResultsStore(prepared))
        result = study.run(max_apps=20)
        # ...match the rows an ingest after the run labels itself.
        unprepared = str(tmp_path / "unprepared.db")
        ResultsStore(unprepared).ingest(
            result, corpus=study.corpus.fingerprint(),
            options=fingerprint_token(study.options.cache_key()),
            snapshot=str(study.corpus.config.snapshot_date),
        )
        assert rows(prepared) == rows(unprepared)


# -- failure paths ---------------------------------------------------------------


class _Killed(Exception):
    """A non-library exception raised from a completion-order consumer."""


def _raising_checkpoint(after):
    seen = []

    def checkpoint(outcome):
        seen.append(outcome)
        if len(seen) == after:
            raise _Killed("killed after %d apps" % after)

    return checkpoint


class TestRunFailureClosesSpans:
    @pytest.mark.parametrize("backend", [
        "inline", pytest.param(BACKEND_PROCESS, marks=needs_processes),
    ])
    def test_raising_checkpoint_closes_spans(self, backend):
        workers = 2 if backend == BACKEND_PROCESS else 1
        pipeline = _make_pipeline(workers, backend)
        pipeline.checkpoint = _raising_checkpoint(5)
        with pytest.raises(_Killed):
            pipeline.run(max_apps=20)
        tracer = pipeline.obs.tracer
        assert tracer.current() is None
        run = tracer.find("run")
        assert run.status == Span.ERROR and run.end is not None
        execute = run.find("execute")
        assert execute.status == Span.ERROR and execute.end is not None


_POISON = {"entry": None}

#: Selection position of the task whose worker always dies.
POISONED = 1


def _poisoned_entry(settings, task):
    if (task.position == POISONED
            and multiprocessing.parent_process() is not None):
        os._exit(1)
    return _POISON["entry"](settings, task)


class _StaticWorkload:
    module, entry, cached = pipeline_module, "_run_analysis_task", True

    def __init__(self):
        self.corpus = generate_corpus(CorpusConfig(universe_size=2_500,
                                                   seed=4242))

    def run(self, config, cache=None):
        pipeline = StaticAnalysisPipeline(self.corpus, obs=Obs(),
                                          exec_config=config, cache=cache)
        result = pipeline.run(max_apps=12)
        delivered = {a.package: (a.failed, a.uses_webview,
                                 a.uses_customtabs, len(a.calls))
                     for a in result.analyses
                     if a.failure_reason != "worker lost after 2 attempts"}
        packages = [a.package for a in result.analyses]
        return pipeline, delivered, packages


class _CrawlWorkload:
    module, entry, cached = crawler_module, "_run_crawl_shard", False

    def run(self, config, cache=None):
        profiles = {p.name: p for p in real_app_profiles()}
        apps = [profiles[name] for name in ("LinkedIn", "Kik", "Instagram")]
        crawler = AdbCrawler(apps, sites=top_sites(2), seed=11, obs=Obs(),
                             exec_config=config)
        crawl = crawler.crawl()
        delivered = {}
        for visit in crawl.visits:
            delivered.setdefault(visit.app.package, []).append(
                (visit.site.host, tuple(visit.endpoints)))
        return crawler, delivered, [app.package for app in apps]


class _ImpactWorkload:
    module, entry, cached = impact_module, "_run_impact_shard", False

    def run(self, config, cache=None):
        census = ImpactCensus(apps=ManualStudy(seed=0).apps()[:6], seed=0,
                              obs=Obs(), exec_config=config)
        result = census.run()
        delivered = {r.package: [(f.bridge, f.attacker, f.severity)
                                 for f in r.findings]
                     for r in result.records}
        return census, delivered, [app.package for app in census.apps]


class _EndpointsWorkload:
    module, entry, cached = endpoints_module, "_run_endpoint_shard", True

    def __init__(self):
        self.corpus = generate_corpus(CorpusConfig(universe_size=120))

    def run(self, config, cache=None):
        census = EndpointCensus(self.corpus,
                                apps=self.corpus.selected_specs()[:8],
                                obs=Obs(), exec_config=config, cache=cache)
        result = census.run()
        delivered = {a.package: [r.url for r in a.records]
                     for a in result.apps}
        return census, delivered, [spec.package for spec in census.apps]


WORKLOADS = {
    "static": _StaticWorkload,
    "crawl": _CrawlWorkload,
    "impact": _ImpactWorkload,
    "endpoints": _EndpointsWorkload,
}


def _without(delivered, package):
    return {key: value for key, value in delivered.items() if key != package}


@needs_processes
class TestPipelineFaultInjection:
    def test_poisoned_app_becomes_worker_lost_drop(self, monkeypatch):
        self.check_quarantine("static", monkeypatch)

    @pytest.mark.parametrize("name", ["crawl", "impact", "endpoints"])
    def test_poisoned_shard_becomes_worker_lost_drop(self, name,
                                                     monkeypatch):
        self.check_quarantine(name, monkeypatch)

    def check_quarantine(self, name, monkeypatch):
        workload = WORKLOADS[name]()
        _, clean, packages = workload.run(ExecConfig(max_workers=1),
                                          cache=AnalysisCache())
        lost = packages[POISONED]
        _POISON["entry"] = getattr(workload.module, workload.entry)
        monkeypatch.setattr(workload.module, workload.entry, _poisoned_entry)
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS, max_attempts=2)
        study, delivered, _ = workload.run(config)

        # The run completed; the poisoned app is one worker_lost drop,
        # quarantined once, and every innocent app delivered.
        registry = study.obs.registry
        assert registry.label_values(DROPS_METRIC).get(
            (WORKER_LOST_SLUG,)) == 1
        assert registry.value(EXEC_TASKS_QUARANTINED_METRIC) == 1
        assert lost not in delivered
        assert delivered == _without(clean, lost)
        assert "tasks quarantined" in study.obs.run_report("t")
        if workload.cached:
            # The lost outcome was never cached: a warm rerun retries
            # exactly that app and now delivers it.
            warm, delivered, _ = workload.run(ExecConfig(max_workers=1))
            assert warm._cache_misses.value == 1
            assert delivered == clean


# -- memory ----------------------------------------------------------------------


_RUN_TYPES = (
    TaskOutcome, StreamStage, pipeline_module.AnalysisTask,
    crawler_module.CrawlShard, impact_module.ImpactShard,
    endpoints_module.EndpointShard,
)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    @pytest.mark.parametrize("backend", [
        "inline", pytest.param(BACKEND_PROCESS, marks=needs_processes),
    ])
    def test_finished_run_freed_by_reference_counting(self, name, backend):
        workload = WORKLOADS[name]()
        workers = 2 if backend == BACKEND_PROCESS else 1
        config = ExecConfig(max_workers=workers, chunk_size=2,
                            backend=backend)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            workload.run(config, cache=AnalysisCache())
            gc.collect()
            leaked = sorted({type(obj).__name__ for obj in gc.garbage
                             if isinstance(obj, _RUN_TYPES)})
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
        assert leaked == []
