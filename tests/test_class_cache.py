"""Tests for class-level content-addressed memoization (PR 3).

The correctness bar: same-seed ``StudyResult``s are byte-identical with
the class cache on or off, at any worker count and backend — and the
class-cache metrics themselves are deterministic because they come from
a selection-order replay, never from worker-local counts.
"""

import os
import pickle

import pytest

from repro.corpus.config import CorpusConfig
from repro.corpus.generator import generate_corpus
from repro.decompiler.jadx import Decompiler
from repro.dex import ClassBuilder, class_digest, serialize_class
from repro.exec import (
    AnalysisCache,
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    ClassFactsCache,
    ExecConfig,
    ExecConfigError,
    MAX_ENTRIES_ENV_VAR,
)
from repro.obs import (
    EXEC_CACHE_EVICTIONS_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CLASS_TIME_SAVED_METRIC,
    Obs,
)
from repro.static_analysis.classfacts import (
    FactsRecorder,
    compute_class_facts,
    facts_for_class,
)
from repro.static_analysis.export import export_study_json
from repro.static_analysis.pipeline import StaticAnalysisPipeline


UNIVERSE = 600


def _study(class_cache, backend, workers, universe=UNIVERSE, cache=None,
           seed=11, chunk_size=None):
    """One same-seed study run; returns (exported JSON, obs bundle)."""
    corpus = generate_corpus(CorpusConfig(seed=seed, universe_size=universe))
    obs = Obs()
    config = ExecConfig(max_workers=workers, backend=backend,
                        cache=class_cache, chunk_size=chunk_size)
    pipeline = StaticAnalysisPipeline(corpus, obs=obs, exec_config=config,
                                      cache=cache)
    result = pipeline.run()
    return export_study_json(result, indent=2), obs


def _sample_class(name="com.sample.Widget"):
    builder = ClassBuilder(name)
    method = builder.method("ping", "()void")
    method.const_string("pong")
    method.return_void()
    return builder.build()


def _sample_facts(name="com.sample.Widget"):
    return compute_class_facts(_sample_class(name), Decompiler())


class TestStudyEquivalence:
    """Class cache on/off x backend x worker count: byte-identical."""

    def test_cache_off_matches_cache_on_everywhere(self):
        baseline, _ = _study(False, "inline", 1)
        for backend, workers in (("inline", 1), ("inline", 4),
                                 ("process", 4)):
            exported, obs = _study(True, backend, workers)
            assert exported == baseline, (backend, workers)
            registry = obs.registry
            hits = registry.value(EXEC_CLASS_CACHE_HITS_METRIC)
            misses = registry.value(EXEC_CLASS_CACHE_MISSES_METRIC)
            assert hits + misses > 0

    def test_hit_metrics_identical_across_backends(self, cold_disk_cache):
        counts = set()
        for backend, workers in (("inline", 1), ("inline", 4),
                                 ("process", 4)):
            cold_disk_cache()
            _, obs = _study(True, backend, workers)
            counts.add((
                obs.registry.value(EXEC_CLASS_CACHE_HITS_METRIC),
                obs.registry.value(EXEC_CLASS_CACHE_MISSES_METRIC),
            ))
        assert len(counts) == 1

    def test_time_saved_identical_across_backends(self, cold_disk_cache):
        # Each class's cost is the difference of two clock readings taken
        # at whatever offset the computing worker's clock has reached.
        # This seed and chunk size put classes at offsets where the
        # unrounded difference differs in its last bits between the
        # inline and process backends.
        saved = set()
        for backend in ("inline", "process"):
            cold_disk_cache()
            _, obs = _study(True, backend, 4, universe=800, seed=4242,
                            chunk_size=4)
            saved.add(obs.registry.value(EXEC_CLASS_TIME_SAVED_METRIC))
        assert len(saved) == 1
        assert saved.pop() > 0

    def test_warm_class_tier_hits_everything(self):
        cold_cache = AnalysisCache()
        cold, _ = _study(True, "inline", 1, universe=400, cache=cold_cache)
        warm_cache = AnalysisCache(classes=cold_cache.classes)
        warm, obs = _study(True, "inline", 1, universe=400, cache=warm_cache)
        assert warm == cold
        registry = obs.registry
        hits = registry.value(EXEC_CLASS_CACHE_HITS_METRIC)
        misses = registry.value(EXEC_CLASS_CACHE_MISSES_METRIC)
        assert misses == 0
        assert hits > 0

    def test_disabled_cache_records_no_class_metrics(self):
        exported_off, obs = _study(False, "inline", 1, universe=400)
        assert obs.registry.get(EXEC_CLASS_CACHE_HITS_METRIC) is None
        exported_on, _ = _study(True, "inline", 1, universe=400)
        assert exported_off == exported_on


class TestFactsForClass:
    def test_compute_then_serve_from_cache(self):
        dex_class = _sample_class()
        cache = ClassFactsCache()
        decompiler = Decompiler()
        first = facts_for_class(dex_class, decompiler, cache=cache)
        second = facts_for_class(dex_class, decompiler, cache=cache)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_recorder_tracks_digests_and_new_facts(self):
        dex_class = _sample_class()
        cache = ClassFactsCache()
        recorder = FactsRecorder()
        decompiler = Decompiler()
        facts_for_class(dex_class, decompiler, cache=cache, recorder=recorder)
        facts_for_class(dex_class, decompiler, cache=cache, recorder=recorder)
        digest = class_digest(dex_class)
        assert recorder.digests == [digest, digest]
        assert set(recorder.new) == {digest}

    def test_digest_is_content_addressed(self):
        assert class_digest(_sample_class()) == class_digest(_sample_class())
        assert class_digest(_sample_class()) != class_digest(
            _sample_class("com.sample.Other")
        )
        assert serialize_class(_sample_class()) == serialize_class(
            _sample_class()
        )


class TestLruEviction:
    def test_class_tier_evicts_least_recently_used(self, monkeypatch):
        # The memory tier alone: a disk layer would serve b back.
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        cache = ClassFactsCache(max_entries=2)
        a, b, c = (_sample_facts("com.s.A"), _sample_facts("com.s.B"),
                   _sample_facts("com.s.C"))
        cache.put(a.digest, a)
        cache.put(b.digest, b)
        assert cache.get(a.digest) is a  # refresh a; b is now LRU
        cache.put(c.digest, c)
        assert cache.evictions == 1
        assert b.digest not in cache
        assert a.digest in cache and c.digest in cache
        assert "1 evicted" in repr(cache)

    def test_apk_tier_honors_max_entries(self):
        cache = AnalysisCache(max_entries=2)
        for index in range(4):
            cache.put("sha%d" % index, (), "entry%d" % index)
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.get("sha0", ()) is None
        assert cache.get("sha3", ()) == "entry3"
        assert "2 evicted" in repr(cache)

    def test_max_entries_env_default(self, monkeypatch):
        monkeypatch.setenv(MAX_ENTRIES_ENV_VAR, "7")
        assert AnalysisCache().max_entries == 7
        monkeypatch.delenv(MAX_ENTRIES_ENV_VAR)
        assert AnalysisCache().max_entries is None

    def test_pipeline_emits_eviction_metrics(self):
        corpus = generate_corpus(CorpusConfig(seed=11, universe_size=400))
        obs = Obs()
        pipeline = StaticAnalysisPipeline(
            corpus, obs=obs,
            exec_config=ExecConfig(max_workers=1, backend="inline",
                                   cache=True),
            cache=AnalysisCache(max_entries=3),
        )
        pipeline.run()
        evictions = obs.registry.label_values(EXEC_CACHE_EVICTIONS_METRIC)
        assert evictions.get(("apk",), 0) > 0
        assert evictions.get(("class",), 0) > 0


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        facts = _sample_facts()
        writer = ClassFactsCache(cache_dir=str(tmp_path))
        writer.put(facts.digest, facts)
        reader = ClassFactsCache(cache_dir=str(tmp_path))
        assert facts.digest in reader.known_digests()
        loaded = reader.get(facts.digest)
        assert loaded is not None
        assert loaded.digest == facts.digest
        assert loaded.source == facts.source
        assert loaded.web_entries == facts.web_entries
        assert loaded.method_summary == facts.method_summary
        assert reader.hits == 1

    def test_corrupt_file_is_a_miss(self, tmp_path):
        facts = _sample_facts()
        path = os.path.join(str(tmp_path), "cls_%s.pkl" % facts.digest)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        cache = ClassFactsCache(cache_dir=str(tmp_path))
        assert cache.get(facts.digest) is None
        assert cache.misses == 1

    def test_facts_pickle_round_trip(self):
        facts = _sample_facts()
        clone = pickle.loads(pickle.dumps(facts))
        assert clone.digest == facts.digest
        assert clone.method_summary == facts.method_summary

    def test_cache_dir_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        assert ClassFactsCache().cache_dir == str(tmp_path)
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        assert ClassFactsCache().cache_dir is None


class TestClassCacheFlag:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert ExecConfig().cache is True

    @pytest.mark.parametrize("raw,expected", [
        ("0", False), ("false", False), ("no", False), ("off", False),
        ("1", True), ("true", True), ("yes", True), ("on", True),
    ])
    def test_env_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv(CACHE_ENV_VAR, raw)
        assert ExecConfig().cache is expected

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "0")
        assert ExecConfig(cache=True).cache is True

    def test_invalid_value_rejected(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "maybe")
        with pytest.raises(ExecConfigError):
            ExecConfig()

    def test_repr_shows_state(self):
        assert "cache=on" in repr(ExecConfig(cache=True))
        assert "cache=off" in repr(ExecConfig(cache=False))
