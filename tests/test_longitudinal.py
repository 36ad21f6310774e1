"""Tests for repro.longitudinal: evolution, RunStore, delta runs, resume."""

import datetime
import os

import pytest

from repro.corpus import (
    ChurnConfig,
    CorpusConfig,
    evolve_corpus,
    generate_corpus,
)
from repro.longitudinal import (
    CheckpointSink,
    IncrementalRunner,
    LongitudinalStudy,
    RunHandle,
    RunStore,
    TrendSeries,
)
from repro.longitudinal import runstore as runstore_module
from repro.obs import Obs
from repro.results import ResultsService, ResultsStore
from repro.static_analysis.export import export_study_json
from repro.static_analysis.pipeline import StaticAnalysisPipeline

UNIVERSE = 5000
DATES = ("2023-04-13", "2023-07-13")


def make_timeline(universe=UNIVERSE, dates=DATES, seed=None):
    """A freshly generated and evolved corpus (new object every call)."""
    kwargs = {"universe_size": universe}
    if seed is not None:
        kwargs["seed"] = seed
    corpus = generate_corpus(CorpusConfig(**kwargs))
    return evolve_corpus(corpus, dates)


@pytest.fixture(scope="module")
def cold_jsons():
    """export_study_json of a cold full run per snapshot date."""
    jsons = {}
    timeline = make_timeline()
    for date in timeline.dates:
        result = StaticAnalysisPipeline(
            timeline.corpus, snapshot_date=date
        ).run()
        jsons[date.isoformat()] = export_study_json(result)
    return jsons


class TestEvolution:
    def test_snapshots_grow_monotonically(self):
        timeline = make_timeline()
        sizes = [len(s) for s in timeline.snapshots()]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_deterministic_for_same_seed(self):
        first = make_timeline()
        second = make_timeline()
        for step_a, step_b in zip(first.steps, second.steps):
            assert step_a.updated == step_b.updated
            assert step_a.migrated == step_b.migrated
            assert step_a.added == step_b.added
            assert step_a.delisted == step_b.delisted
        keys = lambda snap: [
            (r.package, r.version_code, r.sha256) for r in snap.rows
        ]
        for snap_a, snap_b in zip(first.snapshots(), second.snapshots()):
            assert keys(snap_a) == keys(snap_b)
        assert (first.corpus.evolution_token
                == second.corpus.evolution_token)

    def test_fingerprint_distinguishes_evolution(self):
        plain = generate_corpus(CorpusConfig(universe_size=UNIVERSE))
        evolved = make_timeline().corpus
        assert plain.fingerprint() != evolved.fingerprint()

    def test_dates_must_ascend(self):
        corpus = generate_corpus(CorpusConfig(universe_size=1000))
        with pytest.raises(ValueError):
            evolve_corpus(corpus, ["2022-12-01"])

    def test_churn_config_scales(self):
        timeline = make_timeline(dates=("2023-04-13",))
        step = timeline.steps[0]
        assert step.counts()["updated"] > 0
        assert step.counts()["added"] >= 0
        quiet = generate_corpus(CorpusConfig(universe_size=UNIVERSE))
        still = evolve_corpus(
            quiet, ("2023-04-13",),
            ChurnConfig(update_fraction=0.0, migration_fraction=0.0,
                        addition_fraction=0.0, delisting_fraction=0.0),
        )
        assert still.steps[0].counts() == {
            "added": 0, "updated": 0, "migrated": 0, "delisted": 0,
        }


class TestDeltaRuns:
    def test_delta_run_is_cheap_and_byte_identical(self, cold_jsons,
                                                   tmp_path):
        # The acceptance criterion: on a two-snapshot universe with ~10%
        # churn, the delta run analyzes <=25% of the cold run's apps and
        # the merged StudyResult is byte-identical to a cold full run.
        timeline = make_timeline()
        runner = IncrementalRunner(timeline.corpus,
                                   run_store=RunStore(str(tmp_path)))
        cold = runner.run_snapshot(timeline.dates[0])
        delta = runner.run_snapshot(timeline.dates[1])
        assert cold.mode == "cold" and cold.carried == 0
        assert delta.mode == "delta"
        assert delta.fresh <= 0.25 * cold.fresh
        assert delta.carried > 0
        date = timeline.dates[1].isoformat()
        assert export_study_json(delta.result) == cold_jsons[date]

    def test_rerun_of_same_snapshot_does_no_work(self, tmp_path):
        timeline = make_timeline(dates=("2023-04-13",))
        runner = IncrementalRunner(timeline.corpus,
                                   run_store=RunStore(str(tmp_path)))
        first = runner.run_snapshot(timeline.dates[0])
        again = runner.run_snapshot(timeline.dates[0])
        assert first.fresh > 0
        assert again.fresh == 0
        assert again.carried == first.planned
        assert (export_study_json(again.result)
                == export_study_json(first.result))

    def test_plan_reports_index_delta(self):
        # In-memory store: keeps this test hermetic even when the suite
        # runs with REPRO_RUN_STORE pointing at a shared directory.
        timeline = make_timeline()
        runner = IncrementalRunner(timeline.corpus, run_store=RunStore(""))
        prior, delta = runner.plan(timeline.dates[0])
        assert prior is None
        assert delta.unchanged == [] and len(delta.added) > 0
        runner.run_snapshot(timeline.dates[0])
        prior, delta = runner.plan(timeline.dates[1])
        assert prior["snapshot_date"] == timeline.dates[0].isoformat()
        assert len(delta.unchanged) > len(delta.changed) > 0

    def test_persistent_store_carries_across_processes(self, tmp_path,
                                                       cold_jsons):
        # Simulated process restart: fresh corpus objects + fresh RunStore
        # instances over the same directory.
        date = DATES[1]
        first = IncrementalRunner(
            make_timeline().corpus, run_store=RunStore(str(tmp_path))
        )
        for snapshot_date in ("2023-01-13", date):
            first.run_snapshot(snapshot_date)
        second = IncrementalRunner(
            make_timeline().corpus, run_store=RunStore(str(tmp_path))
        )
        rerun = second.run_snapshot(date)
        assert rerun.fresh == 0
        assert export_study_json(rerun.result) == cold_jsons[date]


class KilledMidRun(Exception):
    pass


def _killing_sink(after):
    """CheckpointSink.__call__ wrapper raising after ``after`` outcomes."""
    original = CheckpointSink.__call__

    def call(self, outcome):
        original(self, outcome)
        if self.seen >= after:
            raise KilledMidRun("killed after %d apps" % self.seen)

    return call


class TestCrashResume:
    def test_killed_run_resumes_byte_identical(self, tmp_path, cold_jsons,
                                               monkeypatch):
        date = "2023-01-13"
        store_dir = str(tmp_path)
        runner = IncrementalRunner(
            make_timeline().corpus, run_store=RunStore(store_dir),
            checkpoint_every=10,
        )
        monkeypatch.setattr(CheckpointSink, "__call__", _killing_sink(35))
        with pytest.raises(KilledMidRun):
            runner.run_snapshot(date)
        monkeypatch.undo()

        # The killed run left a checkpoint but no completion manifest.
        store = RunStore(store_dir)
        assert store.list_runs(runner.context) == []
        recovered = store.load_checkpoint(runner.context, "run-" + date)
        assert 0 < len(recovered) <= 35

        resumed_runner = IncrementalRunner(
            make_timeline().corpus, run_store=RunStore(store_dir),
            checkpoint_every=10,
        )
        run = resumed_runner.run_snapshot(date)
        assert run.mode == "resumed"
        assert run.resumed == len(recovered)
        assert export_study_json(run.result) == cold_jsons[date]
        # Completion cleans up: manifest written, checkpoint gone.
        final = RunStore(store_dir)
        assert final.latest_complete(runner.context) is not None
        assert final.load_checkpoint(runner.context, "run-" + date) == {}

    def test_corrupt_checkpoint_treated_as_absent(self, tmp_path,
                                                  cold_jsons):
        date = "2023-01-13"
        runner = IncrementalRunner(
            make_timeline().corpus, run_store=RunStore(str(tmp_path))
        )
        path = runner.store._checkpoint_path(runner.context, "run-" + date)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04truncated-pickle-garbage")
        run = runner.run_snapshot(date)
        assert run.mode == "cold" and run.recovered == 0
        assert export_study_json(run.result) == cold_jsons[date]

    def test_checkpoint_wrong_shape_treated_as_absent(self, tmp_path):
        store = RunStore(str(tmp_path))
        import pickle

        path = store._checkpoint_path("ctx", "run-x")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        assert store.load_checkpoint("ctx", "run-x") == {}


class TestRunStore:
    def test_memory_fallback_without_root(self, monkeypatch):
        monkeypatch.delenv(runstore_module.RUN_STORE_ENV_VAR, raising=False)
        store = RunStore()
        assert not store.persistent
        store.put_outcome("ctx", "a" * 64, (True,), "record")
        assert store.get_outcome("ctx", "a" * 64, (True,)) == "record"
        assert store.get_outcome("ctx", "b" * 64, (True,)) is None

    def test_env_var_enables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv(runstore_module.RUN_STORE_ENV_VAR, str(tmp_path))
        store = RunStore()
        assert store.persistent and store.root == str(tmp_path)

    def test_options_fingerprint_partitions_outcomes(self, tmp_path):
        store = RunStore(str(tmp_path))
        store.put_outcome("ctx", "a" * 64, (True, True), "strict")
        assert store.get_outcome("ctx", "a" * 64, (True, False)) is None
        assert store.get_outcome("ctx", "a" * 64, (True, True)) == "strict"

    def test_latest_complete_orders_by_snapshot_date(self, tmp_path):
        store = RunStore(str(tmp_path))
        for date in ("2023-04-13", "2023-01-13"):
            handle = RunHandle(store, "ctx", "run-" + date)
            handle.finalize(snapshot_date=date)
        latest = store.latest_complete("ctx")
        assert latest["snapshot_date"] == "2023-04-13"
        prior = store.latest_complete("ctx", before="2023-04-13")
        assert prior["snapshot_date"] == "2023-01-13"
        assert store.latest_complete("ctx", before="2023-01-13") is None

    def test_checkpoint_sink_skips_uncacheable(self):
        store = RunStore()
        handle = RunHandle(store, "ctx", "run-x")
        sink = CheckpointSink(handle, (True,), every=2)

        class FakeOutcome:
            def __init__(self, sha, cacheable):
                self.sha256 = sha
                self.analysis = None
                self.error = None
                self.message = None
                self.cacheable = cacheable

        sink(FakeOutcome("a" * 64, cacheable=False))
        assert sink.seen == 0 and handle.entries == {}
        sink(FakeOutcome("b" * 64, True))
        sink(FakeOutcome("c" * 64, True))
        assert sink.seen == 2 and len(handle.entries) == 2
        assert store.load_checkpoint("ctx", "run-x")


class TestTrendsAndFacade:
    @pytest.fixture(scope="class")
    def study(self, tmp_path_factory):
        store = RunStore(str(tmp_path_factory.mktemp("facade-store")))
        study = LongitudinalStudy(universe_size=UNIVERSE, dates=DATES,
                                  run_store=store, obs=Obs())
        study.run_all()
        return study

    def test_runs_cover_every_snapshot(self, study):
        assert [run.snapshot_date for run in study.runs] == study.dates
        assert study.runs[0].mode == "cold"
        assert all(run.mode == "delta" for run in study.runs[1:])

    def test_adoption_table_shape(self, study):
        table = study.trend_table()
        rendered = table.render()
        assert len(table.rows) == len(study.dates)
        assert "WebView %" in rendered

    def test_funnel_table_tracks_growth(self, study):
        table = study.funnel_table()
        azrow = table.rows[0]
        assert azrow[0] == "Play Store apps in Androzoo"
        assert list(azrow[1:]) == sorted(azrow[1:])

    def test_sdk_trend_table(self, study):
        table = study.sdk_trend_table(top_n=5)
        assert 0 < len(table.rows) <= 5
        # Column layout: SDK, one column per snapshot, delta.
        assert len(table.rows[0]) == len(study.dates) + 2

    def test_adoption_deltas_pair_consecutive(self, study):
        rows = study.trend().adoption_table().rows
        assert len(rows) == len(study.dates)
        # The first snapshot has no predecessor; each later one gets a
        # WebView and a CT delta against the snapshot before it.
        assert rows[0][-2:] == ["", ""]
        assert all(row[-2] and row[-1] for row in rows[1:])

    def test_trend_series_from_runs(self, study):
        series = TrendSeries.from_runs(study.runs)
        assert len(series) == len(study.runs)

    def test_run_report_has_longitudinal_section(self, study):
        report = study.run_report()
        assert "Longitudinal" in report
        assert "apps carried" in report
        assert "work avoided" in report

    def test_longitudinal_metrics_recorded(self, study):
        from repro.obs import (
            LONGITUDINAL_APPS_METRIC,
            LONGITUDINAL_RUNS_METRIC,
        )

        registry = study.obs.registry
        runs = registry.label_values(LONGITUDINAL_RUNS_METRIC)
        assert runs.get(("cold",)) == 1
        assert runs.get(("delta",)) == len(study.dates) - 1
        apps = registry.label_values(LONGITUDINAL_APPS_METRIC)
        assert apps.get(("fresh",), 0) > 0
        assert apps.get(("carried",), 0) > 0


class TestServedTrend:
    def test_served_trend_equals_trend_series(self, tmp_path):
        # Every field of every snapshot: counts and all three shares.
        store = ResultsStore(str(tmp_path / "results.db"))
        study = LongitudinalStudy(universe_size=3000, seed=11,
                                  dates=("2023-04-13", "2023-07-13"),
                                  results_store=store)
        study.run_all()
        expected = [
            {
                "snapshot": point.date.isoformat(),
                "analyzed": point.analyzed,
                "webview_apps": point.aggregator.webview_apps,
                "ct_apps": point.aggregator.ct_apps,
                "both_apps": point.aggregator.both_apps,
                "webview_share": point.webview_share,
                "ct_share": point.ct_share,
                "both_share": point.both_share,
            }
            for point in study.trend().points
        ]
        assert len(expected) == 3
        assert ResultsService(store).adoption_trend() == expected
