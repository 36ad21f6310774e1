"""Tests for the run history the results store keeps (repro.results.store).

The contracts: append-only run history keyed by (kind, corpus, options,
git) in the same file as the results; lossless span/registry round-trips
through SQLite; run records never bump the serving generation; a study
records its run only through ``telemetry=``; concurrent writer
processes interleave safely under WAL; corrupt databases read as absent
and failed writes degrade to warnings; the git stamp names the code,
once per process.
"""

import os
import subprocess
import sys
import types

import pytest

from repro.core import DynamicStudy, StaticStudy
from repro.corpus import CorpusConfig, evolve_corpus, generate_corpus
from repro.longitudinal import IncrementalRunner, RunStore
from repro.obs import Obs, perf
from repro.results import store as results_store
from repro.results.serve import main
from repro.results.store import (
    RESULTS_DB_ENV_VAR,
    ResultsStore,
    env_db_path,
    git_describe,
)
from repro.sdk.catalog import build_catalog
from repro.sdk.labeling import SdkLabeler
from repro.static_analysis.results import StudyResult


def sample_obs():
    """An Obs bundle with a small but real span forest + metrics."""
    obs = Obs()
    with obs.span("run"):
        with obs.span("list"):
            pass
        with obs.span("execute"):
            with obs.span("analyze_app", package="com.a"):
                pass
            with obs.span("analyze_app", package="com.b"):
                pass
    return obs


class TestStoreBasics:
    def test_requires_path(self):
        with pytest.raises(ValueError) as err:
            ResultsStore("")
        assert RESULTS_DB_ENV_VAR in str(err.value)

    def test_record_and_list(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        run_id = store.record_run(sample_obs(), "static", corpus="abc",
                                  options="def", git="g1", items=2)
        assert run_id == "static-000001"
        runs = store.list_runs()
        assert [r["run_id"] for r in runs] == [run_id]
        meta = runs[0]
        assert meta["kind"] == "static"
        assert meta["corpus"] == "abc"
        assert meta["options"] == "def"
        assert meta["git"] == "g1"
        assert meta["items"] == 2
        assert meta["elapsed"] > 0

    def test_span_forest_round_trips(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        obs = sample_obs()
        run_id = store.record_run(obs, "static")
        loaded = store.load_spans(run_id)
        assert [root.to_dict() for root in loaded] == [
            root.to_dict() for root in obs.tracer.roots
        ]
        # Analyses over the stored forest match the live one.
        assert perf.flamegraph(loaded) == perf.flamegraph(obs.tracer.roots)

    def test_registry_round_trips(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        obs = sample_obs()
        run_id = store.record_run(obs, "static")
        assert store.load_registry(run_id).as_dict() == obs.registry.as_dict()

    def test_bench_payloads(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        payload = {"benchmark": "x", "speedup": 2.5}
        run_id = store.record_bench("x", payload)
        assert run_id == "bench-000001"
        assert store.load_bench(run_id) == {"x": payload}
        assert store.list_runs(kind="bench")[0]["label"] == "x"

    def test_append_only_ids_are_monotonic(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        ids = [store.record_run(sample_obs(), "static") for _ in range(3)]
        assert ids == ["static-000001", "static-000002", "static-000003"]
        assert store.last_runs("static", limit=2) == ids[:0:-1]

    def test_run_records_leave_generation_unchanged(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        measurement = types.SimpleNamespace(
            webapi_pairs=[("Navigator", "userAgent")])
        assert store.ingest_webapi({"Kik": measurement}) == "webapi-000001"
        assert store.generation() == 1
        assert store.record_run(sample_obs(), "static") == "static-000001"
        assert store.record_bench("x", {"a": 1}) == "bench-000002"
        assert store.generation() == 1
        # Runs and ingests number their ids apart.
        assert store.ingest(StudyResult(SdkLabeler(build_catalog())),
                            snapshot="2023-01-13") == "static-000002"
        assert store.generation() == 2


class TestEnvValidation:
    def test_blank_means_no_store(self, monkeypatch):
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, "   ")
        assert ResultsStore.from_env() is None

    def test_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "sub" / "r.db"
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, str(path))
        store = ResultsStore.from_env()
        assert store is not None
        assert store.record_run(sample_obs(), "static") is not None
        assert path.exists()

    def test_directory_path_rejected_with_suggestion(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, str(tmp_path))
        with pytest.raises(ValueError) as err:
            env_db_path()
        message = str(err.value)
        assert RESULTS_DB_ENV_VAR in message
        assert "results.db" in message

    def test_uncreatable_parent_rejected(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, str(blocker / "r.db"))
        with pytest.raises(ValueError) as err:
            env_db_path()
        assert RESULTS_DB_ENV_VAR in str(err.value)


class TestGitStamp:
    """The stamp is dirty only when the code itself changed."""

    @staticmethod
    def _git(repo, *args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             *args],
            cwd=repo, check=True, capture_output=True,
        )

    @pytest.fixture
    def checkout(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "code.py").write_text("x = 1\n")
        (tmp_path / "notes.md").write_text("notes\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-q", "-m", "base")
        return tmp_path

    def test_change_outside_package_stays_clean(self, checkout):
        clean = git_describe(cwd=str(checkout / "pkg"))
        assert clean and not clean.endswith("-dirty")
        (checkout / "notes.md").write_text("edited\n")
        (checkout / "new_notes.md").write_text("untracked\n")
        assert git_describe(cwd=str(checkout / "pkg")) == clean

    def test_change_inside_package_is_dirty(self, checkout):
        clean = git_describe(cwd=str(checkout / "pkg"))
        (checkout / "pkg" / "code.py").write_text("x = 2\n")
        assert git_describe(cwd=str(checkout / "pkg")) == clean + "-dirty"

    def test_untracked_file_inside_package_is_dirty(self, checkout):
        clean = git_describe(cwd=str(checkout / "pkg"))
        (checkout / "pkg" / "new_module.py").write_text("y = 1\n")
        assert git_describe(cwd=str(checkout / "pkg")) == clean + "-dirty"

    def test_outside_a_checkout_is_empty(self, tmp_path):
        assert git_describe(cwd=str(tmp_path)) == ""

    def test_default_stamp_runs_git_once_per_process(self, tmp_path,
                                                     monkeypatch):
        real_run = subprocess.run
        spawned = []

        def counting_run(args, *rest, **kwargs):
            if args and args[0] == "git":
                spawned.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        results_store._package_stamp.cache_clear()
        results = ResultsStore(str(tmp_path / "r.db"))
        result = StudyResult(SdkLabeler(build_catalog()))
        results.ingest(result, snapshot="2023-01-13")
        results.ingest(result, snapshot="2023-04-13")
        results.record_run(sample_obs(), "static")
        results.record_bench("x", {"a": 1})
        assert results.generation() == 2
        assert 0 < len(spawned) <= 2


class TestStudyPersistence:
    def test_static_study_records(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        study = StaticStudy(universe_size=2000, seed=7, telemetry=store)
        study.run()
        (run,) = store.list_runs(kind="static")
        assert run["items"] == study.result.analyzed
        assert run["corpus"] == study.corpus.fingerprint()
        roots = store.load_spans(run["run_id"])
        # Corpus generation traces into the same bundle; the study
        # run itself is the last root.
        assert roots[-1].name == "run"

    def test_dynamic_study_records(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        study = DynamicStudy(seed=7, site_count=4, telemetry=store)
        study.crawl_top_sites()
        (run,) = store.list_runs(kind="dynamic")
        assert run["items"] > 0
        roots = store.load_spans(run["run_id"])
        assert [r.name for r in roots] == ["crawl"]

    def test_longitudinal_manifest_points_at_telemetry(self, tmp_path):
        store = ResultsStore(str(tmp_path / "r.db"))
        corpus = generate_corpus(CorpusConfig(universe_size=2000, seed=9))
        timeline = evolve_corpus(corpus, ("2023-04-13",))
        runner = IncrementalRunner(
            timeline.corpus, run_store=RunStore(str(tmp_path / "runs")),
            telemetry=store,
        )
        run = runner.run_snapshot(timeline.dates[0])
        (recorded,) = store.list_runs(kind="longitudinal")
        assert run.manifest["telemetry_run"] == recorded["run_id"]
        assert recorded["label"] == timeline.dates[0].isoformat()

    def test_results_store_alone_records_no_run(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv(RESULTS_DB_ENV_VAR, raising=False)
        store = ResultsStore(str(tmp_path / "r.db"))
        study = StaticStudy(universe_size=500, results_store=store)
        assert study.telemetry is None
        study.run()
        assert [i["kind"] for i in store.list_ingests()] == ["static"]
        assert store.list_runs() == []

    def test_one_variable_records_run_and_ingest(self, tmp_path,
                                                 monkeypatch):
        db = str(tmp_path / "r.db")
        monkeypatch.setenv(RESULTS_DB_ENV_VAR, db)
        study = StaticStudy(universe_size=500)
        # The variable is looked up once: one store takes both writes.
        assert study.telemetry is study.results_store
        study.run()
        store = ResultsStore(db)
        assert [i["kind"] for i in store.list_ingests()] == ["static"]
        assert [r["kind"] for r in store.list_runs()] == ["static"]


class TestCli:
    def test_list_empty(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(["--db", db, "runs"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_unknown_run(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        assert main(["--db", db, "run", "static-000099"]) == 1

    def test_show_known_run(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        run_id = ResultsStore(db).record_run(sample_obs(), "static")
        assert main(["--db", db, "run", run_id]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "analyze_app" in out

    def test_flamegraph_to_file(self, tmp_path, capsys):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        run_id = store.record_run(sample_obs(), "static")
        out_path = tmp_path / "run.folded"
        assert main(["--db", db, "flamegraph", "--out", str(out_path)]) == 0
        folded = out_path.read_text()
        assert folded == perf.flamegraph(store.load_spans(run_id))
        assert "run;execute;analyze_app" in folded

    def test_flamegraph_kind_never_folds_another_kind(self, tmp_path,
                                                      capsys):
        db = str(tmp_path / "r.db")
        ResultsStore(db).record_run(sample_obs(), "static")
        out_path = tmp_path / "run.folded"
        args = ["--db", db, "flamegraph", "--out", str(out_path), "--kind"]
        assert main(args + ["longitudinal"]) == 1
        assert not out_path.exists()
        assert ("no runs of kind 'longitudinal' recorded"
                in capsys.readouterr().err)
        assert main(args + ["static"]) == 0
        assert "run;execute;analyze_app" in out_path.read_text()


class TestConcurrency:
    def test_two_processes_interleave(self, tmp_path):
        """Two writer processes, one WAL database, no lost runs."""
        db = str(tmp_path / "r.db")
        ResultsStore(db)  # settle the schema before racing
        script = (
            "import sys\n"
            "from repro.results.store import ResultsStore\n"
            "sys.path.insert(0, %r)\n"
            "from test_obs_store import sample_obs\n"
            "store = ResultsStore(%r)\n"
            "for _ in range(5):\n"
            "    assert store.record_run(sample_obs(), 'static') is not None\n"
        ) % (os.path.dirname(os.path.abspath(__file__)), db)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        runs = ResultsStore(db).list_runs(kind="static")
        ids = [r["run_id"] for r in runs]
        assert len(ids) == 10
        assert len(set(ids)) == 10


class TestCorruption:
    def test_corrupt_database_reads_as_absent(self, tmp_path):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        store.record_run(sample_obs(), "static")
        with open(db, "wb") as handle:
            handle.write(b"this is not a sqlite file")
        assert store.list_runs() == []
        assert store.get_run("static-000001") is None
        assert store.load_spans("static-000001") == []
        assert store.load_registry("static-000001") is None

    def test_corrupt_database_write_degrades_to_warning(self, tmp_path):
        db = str(tmp_path / "r.db")
        store = ResultsStore(db)
        with open(db, "wb") as handle:
            handle.write(b"garbage" * 100)
        assert store.record_run(sample_obs(), "static") is None
        assert store.record_bench("x", {"a": 1}) is None
