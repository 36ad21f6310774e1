"""Tests for the queryable results store and its serving layer.

The load-bearing property is *byte-equality*: every answer the
:class:`~repro.results.serve.ResultsService` serves from SQLite must
equal what the in-memory aggregation (Aggregator, TrendSeries,
nutrition labels, ``CrawlResult.endpoint_summary``) computes from the
live study objects. The store itself follows the :mod:`repro.persist`
conventions: WAL, idempotent delta-appends, two concurrent writer
processes interleave safely, corrupt databases read as absent. Each
served query runs on one connection and one read snapshot.
"""

import os
import sqlite3
import subprocess
import sys
import threading

import pytest

from repro.core import DynamicStudy, StaticStudy
from repro.results.serve import ResultsService, main as results_main
from repro.results.store import (
    RESULTS_DB_ENV_VAR,
    ResultsStore,
)
from repro.static_analysis.nutrition import build_label
from repro.static_analysis.report import Aggregator


def sample_result(tag, count=3):
    """A small synthetic StudyResult (also imported by subprocesses)."""
    from repro.sdk.catalog import build_catalog
    from repro.sdk.labeling import SdkLabeler
    from repro.static_analysis.results import (
        AppAnalysis,
        RecordedCall,
        StudyResult,
    )

    result = StudyResult(SdkLabeler(build_catalog()))
    result.analyzed = count
    for index in range(count):
        package = "com.%s.app%d" % (tag, index)
        analysis = AppAnalysis(package, installs=100_000 * (index + 1))
        analysis.sha256 = "%s-%04d" % (tag, index)
        analysis.record(RecordedCall(
            RecordedCall.WEBVIEW, "loadUrl",
            package + ".ui.Main", "android.webkit.WebView",
        ))
        result.add(analysis)
    return result


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """One results DB holding a static, a crawl and a webapi ingest."""
    db = str(tmp_path_factory.mktemp("results") / "results.db")
    store = ResultsStore(db)
    static = StaticStudy(universe_size=2000, seed=5, results_store=store)
    static.run()
    dynamic = DynamicStudy(seed=20230113, site_count=20,
                           results_store=store)
    crawl = dynamic.crawl_top_sites()
    dynamic.measure_iabs()
    return store, static, dynamic, crawl


@pytest.fixture
def service(populated):
    store = populated[0]
    return ResultsService(store)


#: Every public ResultsService query method.
SERVED_QUERIES = (
    "sdk_league", "adoption_trend", "nutrition_label", "endpoint_summary",
    "endpoint_census", "webapi_usage", "bridge_findings",
    "capability_ranking", "static_endpoints", "static_sdk_census",
    "validation", "funnel",
)


def query_args(populated, name):
    """Positional arguments for one served query on ``populated``."""
    static, crawl = populated[1], populated[3]
    if name == "nutrition_label":
        return (static.result.successful()[0].package,)
    if name == "endpoint_summary":
        return (crawl.visits[0].app.name,)
    return ()


@pytest.fixture
def connections(monkeypatch):
    """The database path of every ``sqlite3.connect`` call, in order."""
    opened = []
    connect = sqlite3.connect

    def counting_connect(database, *args, **kwargs):
        opened.append(database)
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    return opened


class TestIngest:
    def test_every_study_kind_recorded(self, populated):
        store = populated[0]
        kinds = [i["kind"] for i in store.list_ingests()]
        assert kinds == ["static", "crawl", "webapi"]
        assert store.generation() == 3

    def test_outcomes_carry_sha256(self, populated):
        store, static = populated[0], populated[1]
        rows = store._query(
            "SELECT COUNT(*) FROM outcomes WHERE failed = 0"
            " AND sha256 != ''"
        )
        assert rows[0][0] == len(static.result.successful())

    def test_funnel_round_trips(self, populated, service):
        static = populated[1]
        assert service.funnel() == static.result.funnel_dict()

    def test_reingest_is_idempotent_noop(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        result = sample_result("idem")
        first = store.ingest(result, corpus="c", options="o",
                             snapshot="2023-01-13")
        again = store.ingest(result, corpus="c", options="o",
                             snapshot="2023-01-13")
        assert first == again == "static-000001"
        assert store.generation() == 1
        assert store._query(
            "SELECT COUNT(*) FROM outcomes"
        )[0][0] == result.analyzed

    def test_new_snapshot_appends(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        result = sample_result("delta")
        first = store.ingest(result, corpus="c", options="o",
                             snapshot="2023-01-13")
        second = store.ingest(result, corpus="c", options="o",
                              snapshot="2023-04-13")
        assert first != second
        assert store.generation() == 2
        assert store.latest_seq("static", snapshot="2023-01-13") == 1
        assert store.latest_seq("static", snapshot="2023-04-13") == 2

    def test_wrong_type_is_loud(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        with pytest.raises(TypeError):
            store.ingest({"not": "a result"})

    def test_env_var_plumbing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RESULTS_DB_ENV_VAR, raising=False)
        assert ResultsStore.from_env() is None
        db = str(tmp_path / "r.db")
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, db)
        assert ResultsStore.from_env().path == db
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, str(tmp_path))
        with pytest.raises(ValueError):
            ResultsStore.from_env()


class TestServingEquivalence:
    def test_sdk_league_matches_aggregator(self, populated, service):
        static = populated[1]
        aggregator = Aggregator(static.result)
        for mechanism, counts in (
            ("webview", aggregator.sdk_webview_apps),
            ("customtabs", aggregator.sdk_ct_apps),
        ):
            expected = sorted(counts.items(),
                              key=lambda kv: (-kv[1], kv[0]))
            assert service.sdk_league(mechanism=mechanism) == expected

    def test_adoption_trend_matches_result(self, populated, service):
        static = populated[1]
        result = static.result
        trend = service.adoption_trend()
        assert len(trend) == 1
        row = trend[0]
        analyzed = result.analyzed
        assert row["analyzed"] == analyzed
        assert row["webview_apps"] == len(result.webview_apps())
        assert row["ct_apps"] == len(result.customtabs_apps())
        assert row["both_apps"] == len(result.both_apps())
        assert row["webview_share"] == (
            100.0 * len(result.webview_apps()) / (analyzed or 1)
        )
        assert row["ct_share"] == (
            100.0 * len(result.customtabs_apps()) / (analyzed or 1)
        )

    def test_nutrition_labels_match_in_memory(self, populated, service):
        static = populated[1]
        result = static.result
        checked = 0
        for analysis in result.successful()[:50]:
            expected = build_label(
                analysis, analysis.label_sdks(result.labeler)
            )
            served = service.nutrition_label(analysis.package)
            assert served is not None
            assert served.grade == expected.grade
            assert served.disclosure_lines() == (
                expected.disclosure_lines()
            )
            checked += 1
        assert checked > 10

    def test_unknown_package_has_no_label(self, service):
        assert service.nutrition_label("com.not.a.real.app") is None

    def test_endpoint_summary_matches_crawl(self, populated, service):
        crawl = populated[3]
        app_names = sorted({v.app.name for v in crawl.visits})
        assert app_names
        for name in app_names:
            assert service.endpoint_summary(name) == (
                crawl.endpoint_summary(name)
            )

    def test_endpoint_census_totals(self, populated, service):
        store, crawl = populated[0], populated[3]
        census = service.endpoint_census()
        assert census
        # Ranked most-embedded first, ties broken deterministically.
        ranks = [(row[2], row[3]) for row in census]
        assert ranks == sorted(ranks, reverse=True) or census == sorted(
            census, key=lambda r: (-r[2], -r[3], r[0])
        )
        # Every stored endpoint row is one (app, site, host) visit.
        total_rows = store._query(
            "SELECT COUNT(*) FROM endpoints"
        )[0][0]
        assert sum(row[3] for row in census) == total_rows

    def test_census_keys_ip_literals_apart(self, populated, service):
        # The IP-literal registrable-domain fix, observed end-to-end: no
        # census row may carry a truncated dotted-quad tail like "0.1".
        from repro.web.urls import is_ip_literal

        for row in service.endpoint_census():
            domain = row[0]
            if not domain:
                continue
            labels = domain.split(".")
            assert not (len(labels) == 2
                        and all(part.isdigit() for part in labels)), (
                "census row %r looks like a truncated IP tail" % domain
            )
            if is_ip_literal(domain):
                assert len(labels) == 4 or ":" in domain

    def test_webapi_usage_matches_measurements(self, populated, service):
        dynamic = populated[2]
        measurements = dynamic.measure_iabs()
        expected = []
        for name in sorted(measurements):
            counts = {}
            for pair in measurements[name].webapi_pairs:
                counts[pair] = counts.get(pair, 0) + 1
            for (interface, method), calls in sorted(counts.items()):
                expected.append((name, interface, method, calls))
        assert service.webapi_usage() == expected


class TestServingCache:
    def test_repeat_query_hits_cache(self, populated):
        service = ResultsService(populated[0])
        first = service.sdk_league()
        assert service.misses == 1 and service.hits == 0
        assert service.sdk_league() is first
        assert service.hits == 1

    def test_generation_bump_invalidates(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        store.ingest(sample_result("gen"), snapshot="2023-01-13")
        service = ResultsService(store)
        service.sdk_league()
        service.sdk_league()
        assert (service.hits, service.misses) == (1, 1)
        store.ingest(sample_result("gen2"), snapshot="2023-04-13")
        service.sdk_league()
        assert (service.hits, service.misses) == (1, 2)

    def test_cache_is_bounded(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        store.ingest(sample_result("lru"), snapshot="2023-01-13")
        service = ResultsService(store, cache_size=2)
        for package in ("com.lru.app0", "com.lru.app1", "com.lru.app2"):
            service.nutrition_label(package)
        assert len(service._cache) == 2


class TestReadScope:
    @pytest.mark.parametrize("name", SERVED_QUERIES)
    def test_one_connection_per_query(self, populated, connections, name):
        args = query_args(populated, name)
        getattr(ResultsService(populated[0], cache_size=0), name)(*args)
        assert len(connections) == 1
        warm = ResultsService(populated[0])
        getattr(warm, name)(*args)
        del connections[:]
        getattr(warm, name)(*args)
        assert warm.hits == 1
        assert len(connections) <= 1

    def test_answer_matches_its_generation(self, tmp_path, monkeypatch):
        """An ingest landing after the generation read stays invisible."""
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.ingest(sample_result("snap"), snapshot="2023-01-13")
        writer = ResultsStore(db)
        service = ResultsService(store)
        read_generation = store.generation
        raced = []

        def generation_then_ingest():
            generation = read_generation()
            if not raced:
                raced.append(writer.ingest(sample_result("snap"),
                                           snapshot="2023-04-13"))
            return generation

        monkeypatch.setattr(store, "generation", generation_then_ingest)
        trend = service.adoption_trend()
        assert raced == ["static-000002"]
        assert len(trend) == 1
        assert service._cache[(1, "adoption_trend", None, None)] is trend
        assert len(service.adoption_trend()) == 2
        assert (service.hits, service.misses) == (0, 2)


class TestConcurrency:
    def test_two_writer_processes_interleave(self, tmp_path):
        """Two processes append distinct snapshots into one WAL db."""
        db = str(tmp_path / "r.db")
        ResultsStore(db)  # settle the schema before racing
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from test_results import sample_result\n"
            "from repro.results.store import ResultsStore\n"
            "store = ResultsStore(%r)\n"
            "tag = sys.argv[1]\n"
            "for index in range(4):\n"
            "    ingest = store.ingest(sample_result(tag), corpus=tag,\n"
            "                          snapshot='2023-%%02d-13' %% "
            "(index + 1))\n"
            "    assert ingest is not None\n"
        ) % (os.path.dirname(os.path.abspath(__file__)), db)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen([sys.executable, "-c", script, "proc%d" % n],
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
            for n in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        store = ResultsStore(db)
        ingests = store.list_ingests(kind="static")
        ids = [i["ingest_id"] for i in ingests]
        assert len(ids) == 8
        assert len(set(ids)) == 8
        assert store.generation() == 8

    def test_reader_threads_beside_writer_thread(self, tmp_path):
        """Eight readers share one service while snapshots land.

        Every cached adoption trend must hold exactly as many points as
        the generation it is keyed on, and no hit or miss is lost.
        """
        store = ResultsStore(str(tmp_path / "r.db"))
        service = ResultsService(store)
        snapshots = ["2023-%02d-13" % month for month in range(1, 13)]
        done = threading.Event()
        errors = []
        calls = [0] * 8

        def writer():
            try:
                for snapshot in snapshots:
                    if store.ingest(sample_result("race", count=1),
                                    snapshot=snapshot) is None:
                        errors.append("ingest of %s failed" % snapshot)
            except Exception as exc:  # re-raised by the asserts below
                errors.append(exc)
            finally:
                done.set()

        def reader(index):
            try:
                while not done.is_set():
                    service.adoption_trend()
                    calls[index] += 1
            except Exception as exc:  # re-raised by the asserts below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(index,),
                                    daemon=True)
                   for index in range(len(calls))]
        threads.append(threading.Thread(target=writer, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.hits + service.misses == sum(calls)
        trends = {key[0]: value for key, value in service._cache.items()
                  if key[1] == "adoption_trend"}
        assert trends
        for generation, trend in trends.items():
            assert len(trend) == generation
        assert len(service.adoption_trend()) == len(snapshots)


class TestCorruption:
    def test_corrupt_database_reads_as_absent(self, tmp_path):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.ingest(sample_result("c"), snapshot="2023-01-13")
        with open(db, "wb") as handle:
            handle.write(b"this is not a sqlite file")
        assert store.generation() == 0
        assert store.list_ingests() == []
        assert store.latest_seq("static") is None
        service = ResultsService(store)
        assert service.sdk_league() == []
        assert service.adoption_trend() == []
        assert service.nutrition_label("com.c.app0") is None
        assert service.endpoint_census() == []

    def test_corrupt_database_write_degrades_to_warning(self, tmp_path):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        with open(db, "wb") as handle:
            handle.write(b"garbage" * 100)
        assert store.ingest(sample_result("w"),
                            snapshot="2023-01-13") is None

    def test_tampered_grade_is_loud(self, tmp_path):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.ingest(sample_result("g"), snapshot="2023-01-13")
        derived = ResultsService(store).nutrition_label("com.g.app0").grade
        tampered = "A" if derived == "F" else "F"
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE outcomes SET grade = ? WHERE package = ?",
                         (tampered, "com.g.app0"))
        conn.close()
        with pytest.raises(ValueError) as raised:
            ResultsService(store).nutrition_label("com.g.app0")
        message = str(raised.value)
        assert "com.g.app0" in message
        assert repr(tampered) in message and repr(derived) in message

    def test_schema_version_mismatch_is_loud(self, tmp_path):
        import sqlite3

        db = str(tmp_path / "r.db")
        ResultsStore(db)
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE schema_info SET version = 99")
        conn.close()
        with pytest.raises(ValueError) as err:
            ResultsStore(db)
        assert "schema version" in str(err.value)


class TestLongitudinalIngest:
    def test_snapshot_runs_append_trend_rows(self, tmp_path):
        from repro.corpus.config import CorpusConfig
        from repro.corpus.evolution import evolve_corpus
        from repro.corpus.generator import generate_corpus
        from repro.longitudinal.delta import IncrementalRunner
        from repro.longitudinal.runstore import RunStore
        from repro.longitudinal.trends import SnapshotPoint

        store = ResultsStore(str(tmp_path / "r.db"))
        corpus = generate_corpus(CorpusConfig(universe_size=1000))
        timeline = evolve_corpus(corpus, ("2023-04-13",))
        runner = IncrementalRunner(
            timeline.corpus, run_store=RunStore(str(tmp_path / "runs")),
            results_store=store,
        )
        runs = [runner.run_snapshot(date) for date in timeline.dates]
        ingests = store.list_ingests(kind="static")
        assert [i["snapshot"] for i in ingests] == [
            date.isoformat() for date in timeline.dates
        ]
        # Re-running a date appends nothing — idempotent delta-append.
        runner.run_snapshot(timeline.dates[0])
        assert len(store.list_ingests(kind="static")) == len(runs)
        trend = ResultsService(store).adoption_trend()
        points = [SnapshotPoint(run.snapshot_date, run.result)
                  for run in runs]
        assert [row["webview_share"] for row in trend] == [
            point.webview_share for point in points
        ]
        assert [row["analyzed"] for row in trend] == [
            point.analyzed for point in points
        ]


class TestCli:
    def test_snapshots_league_trend_funnel(self, populated, capsys):
        db = populated[0].path
        assert results_main(["--db", db, "snapshots"]) == 0
        assert results_main(["--db", db, "league", "--top", "5"]) == 0
        assert results_main(["--db", db, "trend"]) == 0
        assert results_main(["--db", db, "funnel"]) == 0
        out = capsys.readouterr().out
        assert "static-000001" in out
        assert "Snapshot" in out
        assert "successfully_analyzed" in out

    def test_label_command(self, populated, capsys):
        store, static = populated[0], populated[1]
        package = static.result.successful()[0].package
        assert results_main(["--db", store.path, "label", package]) == 0
        out = capsys.readouterr().out
        assert package in out and "grade" in out

    def test_endpoints_and_webapi(self, populated, capsys):
        db = populated[0].path
        assert results_main(["--db", db, "endpoints", "--top", "5"]) == 0
        assert results_main(["--db", db, "webapi"]) == 0
        out = capsys.readouterr().out
        assert "Registrable domain" in out

    def test_no_db_anywhere_exits(self, monkeypatch):
        monkeypatch.delenv(RESULTS_DB_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            results_main(["snapshots"])

    @pytest.mark.parametrize("command", ["snapshots", "runs"])
    def test_db_naming_a_directory_exits(self, tmp_path, command):
        with pytest.raises(SystemExit) as exit_:
            results_main(["--db", str(tmp_path), command])
        message = exit_.value.code
        assert isinstance(message, str)  # exit status 1
        assert "is a directory" in message
        assert "--db %s" % os.path.join(str(tmp_path), "results.db") \
            in message
