"""Tests for critical-path profiling and live progress streaming
(repro.obs.perf / repro.obs.progress).

The flamegraph contract is the hard one: collapsed-stack output over a
study's span forest must be byte-identical at any worker count and pool
backend under TickClock, because self time is defined to exclude the
scheduler bookkeeping that differs between them.
"""

import io

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.exec import (
    AnalysisCache,
    ExecConfig,
    chain_results,
    process_backend_available,
)
from repro.obs import Obs, ProgressReporter, Span, progress_enabled
from repro.obs import perf
from repro.obs.progress import PROGRESS_ENV_VAR
from repro.static_analysis.pipeline import StaticAnalysisPipeline


def span_tree(data):
    return Span.from_dict(data)


def closed(name, start, end, children=(), **attributes):
    out = {"name": name, "start": start, "end": end,
           "duration": end - start, "status": "ok"}
    if attributes:
        out["attributes"] = attributes
    if children:
        out["children"] = list(children)
    return out


class TestSpanSelfTime:
    def test_leaf_self_time_is_duration(self):
        span = span_tree(closed("analyze", 0.0, 3.0))
        assert perf.span_self_time(span) == 3.0

    def test_children_are_excluded(self):
        span = span_tree(closed("run", 0.0, 10.0, [
            closed("list", 0.0, 2.0), closed("filter", 2.0, 5.0),
        ]))
        assert perf.span_self_time(span) == 5.0

    def test_open_span_contributes_nothing(self):
        span = span_tree({"name": "run", "start": 0.0, "end": None,
                          "duration": None, "status": "open"})
        assert perf.span_self_time(span) == 0.0

    def test_scheduler_span_contributes_nothing(self):
        # A span fanning out to workers: its residue is bookkeeping.
        span = span_tree(closed("execute", 0.0, 10.0, [
            closed("shard", 0.0, 3.0, worker=0),
            closed("shard", 0.0, 4.0, worker=1),
        ]))
        assert perf.span_self_time(span) == 0.0


class TestCriticalPath:
    def test_sequential_children_all_count(self):
        span = span_tree(closed("run", 0.0, 10.0, [
            closed("list", 0.0, 2.0), closed("filter", 2.0, 5.0),
        ]))
        length, path = perf.critical_path(span)
        assert length == 10.0  # 5 self + 2 + 3
        assert [s.name for s in path] == ["run", "list", "filter"]

    def test_parallel_workers_take_the_max(self):
        span = span_tree(closed("execute", 0.0, 9.0, [
            closed("shard", 0.0, 2.0, worker=0),
            closed("shard", 2.0, 4.0, worker=0),
            closed("shard", 0.0, 7.0, worker=1),
        ]))
        length, path = perf.critical_path(span)
        # Worker 1's lane (7.0) beats worker 0's (2 + 2); scheduler
        # residue is excluded by the self-time rule.
        assert length == 7.0
        assert [s.attributes.get("worker") for s in path[1:]] == [1]

    def test_tie_breaks_on_lowest_worker(self):
        span = span_tree(closed("execute", 0.0, 5.0, [
            closed("shard-b", 0.0, 5.0, worker=1),
            closed("shard-a", 0.0, 5.0, worker=0),
        ]))
        _, path = perf.critical_path(span)
        assert path[1].name == "shard-a"


class TestProfileAndFlamegraph:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(CorpusConfig(universe_size=1500, seed=3))

    def run_pipeline(self, corpus, workers, backend):
        # A fresh cache per run: a warm shared cache would serve every
        # app without downloads or analyze_app spans, changing the tree.
        obs = Obs()
        pipeline = StaticAnalysisPipeline(
            corpus, obs=obs, cache=AnalysisCache(),
            exec_config=ExecConfig(max_workers=workers, chunk_size=4,
                                   backend=backend),
        )
        pipeline.run()
        return obs

    def test_flamegraph_identical_across_worker_counts(self, corpus):
        serial = perf.flamegraph(self.run_pipeline(corpus, 1, "inline").tracer)
        sharded = perf.flamegraph(
            self.run_pipeline(corpus, 4, "inline").tracer
        )
        assert sharded == serial
        assert serial.endswith("\n")
        assert any(line.startswith("run;execute;analyze_app ")
                   for line in serial.splitlines())

    @pytest.mark.skipif(not process_backend_available(),
                        reason="no process backend on this platform")
    def test_flamegraph_identical_across_backends(self, corpus):
        inline = perf.flamegraph(self.run_pipeline(corpus, 4, "inline").tracer)
        process = perf.flamegraph(
            self.run_pipeline(corpus, 2, "process").tracer
        )
        assert process == inline

    def test_profile_orders_by_self_time(self, corpus):
        prof = perf.profile(self.run_pipeline(corpus, 4, "inline").tracer)
        stages = prof.ordered()
        assert stages[0].self_time >= stages[-1].self_time
        names = {stage.name for stage in stages}
        assert "analyze_app" in names
        assert prof.critical_length > 0
        assert 0.0 <= prof.path_share("analyze_app") <= 1.0

    def test_run_report_gains_profile_section(self, corpus):
        obs = self.run_pipeline(corpus, 4, "inline")
        report = obs.run_report("static study")
        assert "Profile" in report
        assert "critical path" in report

    def test_flamegraph_empty_forest(self):
        assert perf.flamegraph([]) == ""

    def test_profile_accepts_tracer_or_roots(self, corpus):
        obs = self.run_pipeline(corpus, 1, "inline")
        via_tracer = perf.flamegraph(obs.tracer)
        via_roots = perf.flamegraph(obs.tracer.roots)
        assert via_tracer == via_roots


class Outcome:
    def __init__(self, cost, package=None):
        self.cost = cost
        self.package = package


class TestProgressReporter:
    def test_stream_of_lines_is_deterministic(self):
        def run():
            stream = io.StringIO()
            reporter = ProgressReporter(label="static", every=2,
                                        stream=stream).begin(6)
            for index in range(6):
                reporter(Outcome(0.5, package="com.app%d" % index))
            return stream.getvalue()

        first, second = run(), run()
        assert first == second
        assert "[static] 6/6 (100.0%)" in first

    def test_render_fields(self):
        reporter = ProgressReporter(label="crawl", total=10)
        for _ in range(5):
            reporter(Outcome(0.5))
        line = reporter.render()
        assert line.startswith("[crawl] 5/10 (50.0%)")
        assert "rate=2.0/s" in line
        assert "eta=2.5s" in line
        assert "p50=0.500" in line

    def test_straggler_flagged_with_package(self):
        stream = io.StringIO()
        reporter = ProgressReporter(label="static", every=100,
                                    stream=stream)
        for index in range(8):
            reporter(Outcome(0.1, package="com.ok%d" % index))
        reporter(Outcome(5.0, package="com.stuck"))
        assert reporter.stragglers == [("com.stuck", 5.0)]
        assert "straggler com.stuck" in stream.getvalue()

    def test_no_stream_still_accumulates(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
        reporter = ProgressReporter(every=1)
        reporter(Outcome(1.0))
        assert reporter.done == 1
        assert reporter.lines == 1
        assert reporter.stream is None

    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV_VAR, raising=False)
        assert not progress_enabled()
        for falsy in ("0", "false", "off", ""):
            monkeypatch.setenv(PROGRESS_ENV_VAR, falsy)
            assert not progress_enabled()
        monkeypatch.setenv(PROGRESS_ENV_VAR, "1")
        assert progress_enabled()

    def test_summary_counts_stragglers(self):
        reporter = ProgressReporter(label="x", every=100)
        for _ in range(8):
            reporter(Outcome(0.1))
        reporter(Outcome(9.0))
        assert "1 straggler(s)" in reporter.summary()


class TestChainResults:
    def test_none_survivors(self):
        assert chain_results(None, None) is None

    def test_single_survivor_passes_through(self):
        reporter = ProgressReporter()
        assert chain_results(None, reporter) is reporter

    def test_fanout_calls_all_hooks(self):
        seen = []
        reporter = ProgressReporter(every=100)
        chained = chain_results(seen.append, reporter)
        chained(Outcome(1.0))
        assert len(seen) == 1
        assert reporter.done == 1

    def test_fanout_forwards_begin(self):
        reporter = ProgressReporter(every=100)
        chained = chain_results(lambda outcome: None, reporter)
        assert hasattr(chained, "begin")
        chained.begin(42)
        assert reporter.total == 42

    def test_fanout_without_begin_hooks(self):
        chained = chain_results(lambda outcome: None, lambda outcome: None)
        assert not hasattr(chained, "begin")


class TestPipelineProgressIntegration:
    def test_static_pipeline_streams_deterministically(self):
        corpus = generate_corpus(CorpusConfig(universe_size=1200, seed=4))

        def run(workers):
            stream = io.StringIO()
            reporter = ProgressReporter(label="static", every=5,
                                        stream=stream)
            pipeline = StaticAnalysisPipeline(
                corpus, obs=Obs(), cache=AnalysisCache(),
                progress_hook=reporter,
                exec_config=ExecConfig(max_workers=workers, chunk_size=4,
                                       backend="inline"),
            )
            pipeline.run()
            assert reporter.total is not None
            assert reporter.done == reporter.total
            return stream.getvalue()

        serial, sharded = run(1), run(4)
        assert serial == sharded
        assert "[static]" in serial
