"""Tests for the parallel-execution layer (repro.exec)."""

import multiprocessing
import os

import pytest

from repro.exec import (
    AnalysisCache,
    BACKEND_AUTO,
    BACKEND_ENV_VAR,
    BACKEND_INLINE,
    BACKEND_PROCESS,
    CHUNK_SIZE_ENV_VAR,
    ExecConfig,
    ExecConfigError,
    MAX_WORKERS_ENV_VAR,
    RETRIES_ENV_VAR,
    StreamScheduler,
    StreamStage,
    WINDOW_ENV_VAR,
    chain_results,
    process_backend_available,
    simulate_stream,
)

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="process pools unavailable on this platform",
)


class TestExecConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV_VAR, raising=False)
        monkeypatch.delenv(CHUNK_SIZE_ENV_VAR, raising=False)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        config = ExecConfig()
        assert config.max_workers == 1
        assert config.chunk_size == 8
        assert config.backend == BACKEND_AUTO
        assert config.resolved_backend == BACKEND_INLINE

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "4")
        monkeypatch.setenv(CHUNK_SIZE_ENV_VAR, "3")
        monkeypatch.setenv(BACKEND_ENV_VAR, BACKEND_INLINE)
        config = ExecConfig()
        assert config.max_workers == 4
        assert config.chunk_size == 3
        assert config.resolved_backend == BACKEND_INLINE

    def test_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "4")
        assert ExecConfig(max_workers=2).max_workers == 2

    def test_auto_resolution(self):
        assert ExecConfig(max_workers=1).resolved_backend == BACKEND_INLINE
        assert ExecConfig(max_workers=2).resolved_backend == BACKEND_PROCESS

    def test_window_bounds_in_flight_chunks(self):
        assert ExecConfig(max_workers=3).window == 6

    def test_validation(self, monkeypatch):
        with pytest.raises(ExecConfigError):
            ExecConfig(max_workers=0)
        with pytest.raises(ExecConfigError):
            ExecConfig(chunk_size=0)
        with pytest.raises(ExecConfigError):
            ExecConfig(backend="threads")
        monkeypatch.setenv(MAX_WORKERS_ENV_VAR, "lots")
        with pytest.raises(ExecConfigError):
            ExecConfig()

    def test_window_env_override(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV_VAR, "5")
        assert ExecConfig(max_workers=3).window == 5

    def test_window_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(WINDOW_ENV_VAR, "5")
        assert ExecConfig(max_workers=3, window=9).window == 9

    def test_window_validation(self, monkeypatch):
        with pytest.raises(ExecConfigError):
            ExecConfig(window=0)
        monkeypatch.setenv(WINDOW_ENV_VAR, "0")
        with pytest.raises(ExecConfigError):
            ExecConfig()
        monkeypatch.setenv(WINDOW_ENV_VAR, "wide")
        with pytest.raises(ExecConfigError):
            ExecConfig()

    def test_retries_env_and_validation(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "5")
        assert ExecConfig().max_attempts == 5
        monkeypatch.setenv(RETRIES_ENV_VAR, "0")
        with pytest.raises(ExecConfigError):
            ExecConfig()


class TestAnalysisCache:
    def test_miss_then_hit(self):
        cache = AnalysisCache()
        assert cache.get("a" * 64, (True,)) is None
        cache.put("a" * 64, (True,), "outcome")
        assert cache.get("a" * 64, (True,)) == "outcome"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_fingerprint_separates_option_sets(self):
        cache = AnalysisCache()
        cache.put("a" * 64, (True, True), "strict")
        cache.put("a" * 64, (False, True), "naive")
        assert cache.get("a" * 64, (True, True)) == "strict"
        assert cache.get("a" * 64, (False, True)) == "naive"
        assert len(cache) == 2

    def test_clear(self):
        cache = AnalysisCache()
        cache.put("a" * 64, (), 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a" * 64, ()) is None


def fifo_schedule(costs, max_workers, chunk_size):
    """The back-to-back FIFO schedule: the stream replay without steals."""
    return simulate_stream(costs, max_workers, chunk_size, steal=False)


class TestSimulateSchedule:
    def test_empty(self):
        schedule = fifo_schedule([], 4, 2)
        assert schedule.critical_path == 0.0
        assert schedule.speedup == 1.0
        assert schedule.assignments == []

    def test_uniform_costs_balance_perfectly(self):
        schedule = fifo_schedule([1.0] * 8, 4, 1)
        assert schedule.worker_busy == [2.0, 2.0, 2.0, 2.0]
        assert schedule.critical_path == 2.0
        assert schedule.speedup == 4.0

    def test_greedy_earliest_free_worker(self):
        # w0 takes the 5; the three 1s drain through w1.
        schedule = fifo_schedule([5.0, 1.0, 1.0, 1.0], 2, 1)
        assert schedule.assignments == [0, 1, 1, 1]
        assert schedule.worker_busy == [5.0, 3.0]
        assert schedule.critical_path == 5.0

    def test_chunks_stay_together(self):
        schedule = fifo_schedule([1.0, 1.0, 1.0, 1.0], 2, 2)
        assert schedule.assignments == [0, 0, 1, 1]

    def test_rejects_invalid_worker_and_chunk_counts(self):
        with pytest.raises(ExecConfigError):
            fifo_schedule([1.0], 0, 1)
        with pytest.raises(ExecConfigError):
            fifo_schedule([1.0], 2, 0)

    def test_serial_schedule_has_no_speedup(self):
        schedule = fifo_schedule([1.0, 2.0, 3.0], 1, 2)
        assert schedule.speedup == 1.0
        assert schedule.critical_path == 6.0


def _square(value):
    return value * value


def _explode(value):
    raise RuntimeError("task %d blew up" % value)


def _pid(value):
    return os.getpid()


def _run(config, tasks, fn, sink=None):
    """Drain one stage; returns (its outcomes, the scheduler)."""
    stage = StreamStage("s", tasks, fn).consume(sink)
    scheduler = StreamScheduler(config)
    return scheduler.run([stage])[0], scheduler


class TestWorkerPools:
    def test_inline_pool_ordered(self):
        results, _ = _run(ExecConfig(max_workers=1), [1, 2, 3], _square)
        assert results == [1, 4, 9]

    @needs_processes
    def test_process_pool_matches_inline(self):
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS)
        values = list(range(11))
        results, _ = _run(config, values, _square)
        assert results == [v * v for v in values]

    @needs_processes
    def test_process_pool_empty_input(self):
        config = ExecConfig(max_workers=2, backend=BACKEND_PROCESS)
        assert _run(config, [], _square)[0] == []

    @needs_processes
    def test_process_pool_propagates_worker_bugs(self):
        config = ExecConfig(max_workers=2, chunk_size=1,
                            backend=BACKEND_PROCESS)
        with pytest.raises(RuntimeError):
            _run(config, [1], _explode)

    @needs_processes
    def test_backend_resolution_decides_where_tasks_run(self):
        parent = os.getpid()
        inline, _ = _run(ExecConfig(max_workers=1), [1, 2], _pid)
        assert inline == [parent, parent]
        pooled, _ = _run(ExecConfig(max_workers=2), [1, 2], _pid)
        assert parent not in pooled

    def test_falls_back_inline_when_processes_unavailable(self, monkeypatch):
        import repro.exec.stream as stream_module

        monkeypatch.setattr(stream_module, "process_backend_available",
                            lambda: False)
        events = []

        class Log:
            def warning(self, event, **kv):
                events.append(event)

        stage = StreamStage("s", [1, 2], _pid)
        scheduler = StreamScheduler(
            ExecConfig(max_workers=4, backend=BACKEND_PROCESS), log=Log()
        )
        assert scheduler.run([stage]) == [[os.getpid(), os.getpid()]]
        assert events == ["process_backend_unavailable"]


_FLAG_DIR = {"path": None}


def _die_once_in_worker(value):
    # Simulated worker death: os._exit skips all exception machinery, so
    # the executor sees only a vanished process (a broken pool). The
    # flag file makes the death transient, so the repair pass's re-run
    # succeeds; the parent-process guard keeps it harmless inline.
    flag = os.path.join(_FLAG_DIR["path"], "died-%d" % value)
    if (value == 13 and multiprocessing.parent_process() is not None
            and not os.path.exists(flag)):
        open(flag, "w").close()
        os._exit(1)
    return value * value


class TestProcessPoolRepair:
    @needs_processes
    def test_worker_death_repaired_without_aborting(self, tmp_path):
        _FLAG_DIR["path"] = str(tmp_path)
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS)
        seen = []
        values = list(range(20))
        results, scheduler = _run(config, values, _die_once_in_worker,
                                  sink=seen.append)
        assert results == [v * v for v in values]
        assert scheduler.repaired_chunks >= 1
        # Every result was also delivered to the completion-order sink,
        # including the ones from repaired chunks.
        assert sorted(seen) == sorted(results)

    def test_inline_pool_never_repairs(self):
        results, scheduler = _run(ExecConfig(max_workers=1), [1, 2], _square)
        assert results == [1, 4]
        assert scheduler.repaired_chunks == 0

    @needs_processes
    def test_workers_joined_when_run_returns(self):
        config = ExecConfig(max_workers=2, chunk_size=1,
                            backend=BACKEND_PROCESS)
        _run(config, list(range(6)), _square)
        assert multiprocessing.active_children() == []


class _RecordingHook:
    """An on_result hook that also wants the expected total via begin()."""

    def __init__(self):
        self.begun = []
        self.values = []

    def begin(self, total):
        self.begun.append(total)

    def __call__(self, value):
        self.values.append(value)


class TestChainResults:
    def test_all_nones_collapse_to_none(self):
        assert chain_results() is None
        assert chain_results(None, None) is None

    def test_single_survivor_passes_through_unwrapped(self):
        hook = _RecordingHook()
        assert chain_results(None, hook, None) is hook

    def test_fanout_delivers_to_every_hook(self):
        values = []
        hook = _RecordingHook()
        chained = chain_results(values.append, None, hook)
        chained(3)
        chained(4)
        assert values == [3, 4]
        assert hook.values == [3, 4]

    def test_begin_forwarding_with_mixed_hooks(self):
        # Plain callables have no begin(); the chain still grows one that
        # reaches every hook that does.
        plain = []
        first = _RecordingHook()
        second = _RecordingHook()
        chained = chain_results(plain.append, first, second)
        chained.begin(7)
        assert first.begun == [7]
        assert second.begun == [7]

    def test_no_begin_when_no_hook_wants_one(self):
        sink_a, sink_b = [], []
        chained = chain_results(sink_a.append, sink_b.append)
        assert not hasattr(chained, "begin")

    def test_chained_hooks_on_inline_pool(self):
        values = []
        hook = _RecordingHook()
        results, _ = _run(ExecConfig(max_workers=1), [1, 2, 3], _square,
                          sink=chain_results(values.append, hook))
        assert results == [1, 4, 9]
        assert values == [1, 4, 9]
        assert hook.values == [1, 4, 9]

    @needs_processes
    def test_chained_hooks_on_process_pool(self):
        config = ExecConfig(max_workers=2, chunk_size=2,
                            backend=BACKEND_PROCESS)
        values = []
        hook = _RecordingHook()
        results, _ = _run(config, list(range(9)), _square,
                          sink=chain_results(values.append, hook))
        assert results == [v * v for v in range(9)]
        # Completion order may differ from input order, but every result
        # reaches both hooks exactly once, in the same interleaving.
        assert sorted(values) == sorted(results)
        assert hook.values == values
