"""Tests for the persistence core (repro.persist).

Failure modes are tested once, against the core. Each SQLite case runs
against both stores built on :class:`~repro.persist.SqliteStore` (the
telemetry store and the results store); the whole-file cases run against
:func:`~repro.persist.atomic_write` and :func:`~repro.persist.load_pickle`,
which the longitudinal RunStore and the class-facts disk cache share.
The contracts: a locked, truncated, garbage or unopenable database reads
as absent and its writes degrade to a logged warning; a writer killed
mid-transaction leaves no partial row; every connection is closed; an
older results file is upgraded in place; a corrupt pickle reads as None.
"""

import logging
import os
import pickle
import signal
import sqlite3
import subprocess
import sys
import types

import pytest

from repro import persist
from repro.core import StaticStudy
from repro.endpoints import AppEndpoints, EndpointRecord, EndpointResult
from repro.exec.cache import ClassFactsCache
from repro.impact import AppImpact, BridgeFinding, ImpactResult
from repro.obs import Obs
from repro.obs.store import OBS_DB_ENV_VAR, TelemetryStore
from repro.results.serve import ResultsService
from repro.results.store import RESULTS_DB_ENV_VAR, ResultsStore

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.abspath(os.path.join(TESTS_DIR, os.pardir, "src"))

GARBAGE = b"this is not a sqlite file" * 40


class TelemetryCase:
    """Writes and lists runs the way a study records them."""

    name = "telemetry"
    store = TelemetryStore
    child_table = "traces"

    @staticmethod
    def write(store, tag):
        obs = Obs()
        with obs.span("run"):
            with obs.span(tag):
                pass
        return store.record_run(obs, "static", label=tag, git="g")

    @staticmethod
    def ids(store):
        return [run["run_id"] for run in store.list_runs()]


class ResultsCase:
    """Writes and lists ingests; the tag is the ingest's snapshot key."""

    name = "results"
    store = ResultsStore
    child_table = "webapi_events"

    @staticmethod
    def write(store, tag):
        measurement = types.SimpleNamespace(
            webapi_pairs=[("Navigator", "userAgent")])
        return store.ingest_webapi({"app-" + tag: measurement},
                                   snapshot=tag, git="g")

    @staticmethod
    def ids(store):
        return [ingest["ingest_id"] for ingest in store.list_ingests()]


CASES = {case.name: case for case in (TelemetryCase, ResultsCase)}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture
def warnings_logged(caplog):
    """The events of every warning the ``repro`` loggers emitted so far."""
    caplog.set_level(logging.WARNING, logger="repro")
    return lambda: [record.repro_event for record in caplog.records
                    if record.levelno >= logging.WARNING
                    and record.name.startswith("repro.")]


def child_rows(case, store):
    return store._query("SELECT COUNT(*) FROM %s" % case.child_table)[0][0]


def spoil_with_garbage(tmp_path):
    path = tmp_path / "store.db"
    path.write_bytes(GARBAGE)
    return str(path)


def spoil_parent_is_a_file(tmp_path):
    # Root ignores permission bits, so a read-only directory would not
    # stop it; a regular file where the directory should be does.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("a regular file")
    return str(blocker / "store.db")


class TestSqliteFailureModes:
    def test_lock_held_past_busy_timeout(self, case, tmp_path, monkeypatch,
                                         warnings_logged):
        monkeypatch.setattr(persist, "BUSY_TIMEOUT_S", 0.05)
        path = str(tmp_path / "store.db")
        store = case.store(path)
        first = case.write(store, "a")
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            assert case.write(store, "b") is None
            assert warnings_logged() == ["write_failed"]
            assert case.ids(store) == [first]
            # Opening only reads the schema version: no wait, no warning.
            assert case.ids(case.store(path)) == [first]
            assert warnings_logged() == ["write_failed"]
        finally:
            holder.rollback()
            holder.close()
        assert case.write(store, "b") is not None

    def test_writer_killed_mid_transaction(self, case, tmp_path):
        path = str(tmp_path / "store.db")
        store = case.store(path)
        first = case.write(store, "a")
        rows = child_rows(case, store)
        # The child stalls where its write transaction would commit,
        # after every row is written, and is killed there.
        script = (
            "import sqlite3, sys, time\n"
            "sys.path.insert(0, %r)\n"
            "import test_persist\n"
            "class Stalling(sqlite3.Connection):\n"
            "    def __exit__(self, *exc_info):\n"
            "        if self.in_transaction:\n"
            "            print('in transaction', flush=True)\n"
            "            time.sleep(120)\n"
            "        return super().__exit__(*exc_info)\n"
            "connect = sqlite3.connect\n"
            "sqlite3.connect = lambda *args, **kwargs: connect(\n"
            "    *args, factory=Stalling, **kwargs)\n"
            "case = test_persist.CASES[%r]\n"
            "case.write(case.store(%r), 'killed')\n"
        ) % (TESTS_DIR, case.name, path)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate(timeout=60)
        assert line == b"in transaction\n", stderr.decode()
        assert proc.returncode == -signal.SIGKILL
        fresh = case.store(path)
        assert case.ids(fresh) == [first]
        assert child_rows(case, fresh) == rows
        # For the results store this is the killed ingest's own key.
        second = case.write(fresh, "killed")
        assert second is not None
        assert case.ids(fresh) == [first, second]
        assert child_rows(case, fresh) == 2 * rows

    def test_truncated_file_reads_as_absent(self, case, tmp_path,
                                            warnings_logged):
        path = str(tmp_path / "store.db")
        store = case.store(path)
        for tag in ("a", "b", "c"):
            assert case.write(store, tag) is not None
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.close()
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert case.ids(store) == []
        fresh = case.store(path)
        assert warnings_logged() == ["open_failed"]
        assert case.ids(fresh) == []
        assert case.write(fresh, "d") is None
        assert warnings_logged() == ["open_failed", "write_failed"]

    @pytest.mark.parametrize("spoil", [spoil_with_garbage,
                                       spoil_parent_is_a_file])
    def test_unreadable_file_reads_as_absent(self, case, tmp_path, spoil,
                                             warnings_logged):
        path = spoil(tmp_path)
        store = case.store(path)
        assert warnings_logged() == ["open_failed"]
        assert case.ids(store) == []
        assert case.write(store, "a") is None
        assert warnings_logged() == ["open_failed", "write_failed"]

    def test_every_connection_is_closed(self, case, tmp_path, monkeypatch):
        opened = []
        connect = sqlite3.connect

        class Tracked(sqlite3.Connection):
            was_closed = False

            def close(self):
                self.was_closed = True
                super().close()

        def tracking_connect(*args, **kwargs):
            conn = connect(*args, factory=Tracked, **kwargs)
            opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", tracking_connect)
        path = str(tmp_path / "store.db")
        store = case.store(path)
        case.write(store, "a")
        case.ids(store)
        with open(path, "wb") as handle:
            handle.write(GARBAGE)
        case.ids(store)
        case.write(store, "b")
        assert len(opened) == 5
        assert [conn for conn in opened if not conn.was_closed] == []
        garbage = case.store(path)
        case.ids(garbage)
        case.write(garbage, "c")
        assert len(opened) == 8
        assert [conn for conn in opened if not conn.was_closed] == []


@pytest.mark.parametrize("var", [OBS_DB_ENV_VAR, RESULTS_DB_ENV_VAR])
def test_garbage_database_never_fails_a_study(var, tmp_path, monkeypatch):
    monkeypatch.delenv(OBS_DB_ENV_VAR, raising=False)
    monkeypatch.delenv(RESULTS_DB_ENV_VAR, raising=False)
    plain = StaticStudy(universe_size=500)
    plain.run()
    monkeypatch.setenv(var, spoil_with_garbage(tmp_path))
    study = StaticStudy(universe_size=500)
    study.run()
    assert study.result.analyzed == plain.result.analyzed > 0
    assert ([analysis.package for analysis in study.result.analyses]
            == [analysis.package for analysis in plain.result.analyses])


def schema_version(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT version FROM schema_info").fetchall()
    finally:
        conn.close()


def static_answers(service):
    return (service.sdk_league(), service.sdk_league("customtabs"),
            service.adoption_trend(), service.funnel())


class TestResultsUpgrade:
    def test_v1_file_is_upgraded_in_place(self, tmp_path):
        path = str(tmp_path / "results.db")
        StaticStudy(universe_size=500,
                    results_store=ResultsStore(path)).run()
        before = static_answers(ResultsService(ResultsStore(path)))
        assert before[0] and before[2]
        # v2 and v3 only added these two tables and their indexes.
        conn = sqlite3.connect(path)
        with conn:
            for name in ("bridge_findings", "static_endpoints"):
                conn.execute("DROP INDEX %s_by_sdk" % name)
                conn.execute("DROP TABLE %s" % name)
            conn.execute("UPDATE schema_info SET version = 1")
        conn.close()
        assert schema_version(path) == [(1,)]

        store = ResultsStore(path)
        assert schema_version(path) == [(3,)]
        service = ResultsService(store)
        assert static_answers(service) == before

        finding = BridgeFinding(
            "Kik", "kik.android", "AdSdk", "adBridge", "sdk", "invoke",
            readable=("cookie",), invocable=("open",), flow_count=2,
        )
        impact = ImpactResult([AppImpact("Kik", "kik.android", "webview",
                                         findings=[finding])])
        assert store.ingest_impact(impact, snapshot="2023-04-13") \
            is not None
        assert service.bridge_findings() == [
            ("Kik", "AdSdk", "adBridge", "sdk", "invoke", "cookie", "open",
             2, 0),
        ]
        assert service.capability_ranking() \
            == impact.sdk_capability_ranking()

        record = EndpointRecord("http://ads.example.com/v1", False,
                                "com.adsdk.Net", host="ads.example.com",
                                registrable_domain="example.com")
        record.sdk = "AdSdk"
        endpoints = EndpointResult([AppEndpoints("kik.android", [record])])
        assert store.ingest_endpoints(endpoints, snapshot="2023-04-13") \
            is not None
        assert dict(service.static_sdk_census()) == endpoints.sdk_census()
        assert [(app, url) for app, _, url, _, _, _, _, _
                in service.static_endpoints()] \
            == [("kik.android", "http://ads.example.com/v1")]
        assert static_answers(service) == before


PAYLOAD = {"apps": ["com.a", "com.b"], "analyzed": 2}

SPOILED_PICKLES = {
    "not a pickle": b"this is not a pickle",
    "truncated": pickle.dumps(PAYLOAD)[:len(pickle.dumps(PAYLOAD)) // 2],
    "unknown protocol": b"\x80\x09" + pickle.dumps(PAYLOAD)[2:],
}


class TestPickleFiles:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "nested" / "payload.pkl")
        persist.atomic_write(path, pickle.dumps(PAYLOAD))
        assert persist.load_pickle(path) == PAYLOAD
        assert os.listdir(os.path.dirname(path)) == ["payload.pkl"]

    @pytest.mark.parametrize("name", sorted(SPOILED_PICKLES))
    def test_corrupt_pickle_reads_as_none(self, tmp_path, name):
        path = tmp_path / "payload.pkl"
        path.write_bytes(SPOILED_PICKLES[name])
        assert persist.load_pickle(str(path)) is None

    def test_missing_file_reads_as_none(self, tmp_path):
        assert persist.load_pickle(str(tmp_path / "absent.pkl")) is None

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch,
                                         failure):
        path = str(tmp_path / "payload.pkl")
        persist.atomic_write(path, pickle.dumps(PAYLOAD))
        data = pickle.dumps({"apps": []})
        if failure == "write":
            data = "text, not bytes"  # the write call itself raises
        else:
            def failing_replace(source, target):
                raise OSError("disk full")
            monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises((OSError, TypeError)):
            persist.atomic_write(path, data)
        assert persist.load_pickle(path) == PAYLOAD
        assert os.listdir(str(tmp_path)) == ["payload.pkl"]

    def test_class_cache_counts_unknown_protocol_as_miss(self, tmp_path):
        cache = ClassFactsCache(cache_dir=str(tmp_path))
        (tmp_path / "cls_feed.pkl").write_bytes(
            SPOILED_PICKLES["unknown protocol"])
        assert cache.peek("feed") is None
        assert cache.get("feed") is None
        assert (cache.hits, cache.misses) == (0, 1)
