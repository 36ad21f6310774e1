"""repro.exec — parallel execution for the corpus-level studies.

The paper's static pipeline covers ~146.5K APKs; at that scale per-app
analysis must be batched across workers (the same move DroidMeter and
Rapoport et al. made). This package provides the pieces the studies
shard themselves with:

- **configuration** (:mod:`repro.exec.config`): :class:`ExecConfig` reads
  ``REPRO_MAX_WORKERS`` / ``REPRO_CHUNK_SIZE`` / ``REPRO_EXEC_BACKEND``
  and resolves the backend (``process`` when more than one worker is
  requested, ``inline`` otherwise).
- **the executor** (:mod:`repro.exec.stream`): every sharded workload
  opens a :class:`StreamPlan` — the shard lifecycle the workloads
  share: spans, selection-order merge, worker attribution, exec metrics
  and quarantine — whose stage a :class:`StreamScheduler` drains,
  in-process at one worker and on a process pool with a bounded
  in-flight chunk window otherwise. Results flow to consumers as they
  complete, with round-robin chunk interleaving across stages,
  cancel-and-split work stealing for straggler tails, and a
  worker-death repair pass that bisects lost chunks and quarantines a
  repeat offender into the drop taxonomy after ``REPRO_EXEC_RETRIES``
  attempts.
- **result cache** (:mod:`repro.exec.cache`): :class:`AnalysisCache`, a
  two-tier LRU-bounded store — SHA-256-keyed per-APK outcomes on top of a
  corpus-wide content-addressed :class:`ClassFactsCache`, so repeated
  runs skip whole apps and shared SDK classes are decompiled and parsed
  once per corpus (``REPRO_CACHE_MAX_ENTRIES`` bounds both tiers,
  ``REPRO_CACHE_DIR`` adds an on-disk class-facts layer,
  ``REPRO_CLASS_CACHE=0`` disables class-level memoization).
- **schedule accounting** (:mod:`repro.exec.schedule`): a deterministic
  event-driven replay of the scheduler's policy over measured task
  costs; the run report's worker attribution, steal count and
  parallel-speedup figure (work / critical path) come from it,
  independent of real scheduling jitter.

Determinism contract: results are aggregated in selection order and the
per-task work is a pure function of the APK bytes, so a same-seed study
produces byte-identical tables for any worker count or backend — the
scheduler's ordered consumers see exact task order via a prefix-flush
buffer however chunks complete.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV_VAR,
    CLASS_FACTS_KIND,
    ENDPOINT_SUMMARY_KIND,
    AnalysisCache,
    ClassFactsCache,
    LruStore,
    MAX_ENTRIES_ENV_VAR,
    env_max_entries,
)
from repro.exec.config import (
    BACKEND_AUTO,
    BACKEND_ENV_VAR,
    BACKEND_INLINE,
    BACKEND_PROCESS,
    CHUNK_SIZE_ENV_VAR,
    CLASS_CACHE_ENV_VAR,
    DEFAULT_MAX_ATTEMPTS,
    ENDPOINT_CACHE_ENV_VAR,
    ExecConfig,
    ExecConfigError,
    MAX_WORKERS_ENV_VAR,
    RETRIES_ENV_VAR,
    SCRIPT_CACHE_ENV_VAR,
    WINDOW_ENV_VAR,
)
from repro.exec.schedule import (
    Schedule,
    simulate_stream,
    simulate_stream_chunks,
)
from repro.exec.stream import (
    OrderedFlush,
    StreamPlan,
    StreamScheduler,
    StreamStage,
    TaskOutcome,
    WORKER_LOST_SLUG,
    chain_results,
    process_backend_available,
    run_plans,
)

__all__ = [
    "AnalysisCache",
    "BACKEND_AUTO",
    "BACKEND_ENV_VAR",
    "BACKEND_INLINE",
    "BACKEND_PROCESS",
    "CACHE_DIR_ENV_VAR",
    "CHUNK_SIZE_ENV_VAR",
    "CLASS_CACHE_ENV_VAR",
    "CLASS_FACTS_KIND",
    "ClassFactsCache",
    "DEFAULT_MAX_ATTEMPTS",
    "ENDPOINT_CACHE_ENV_VAR",
    "ENDPOINT_SUMMARY_KIND",
    "ExecConfig",
    "ExecConfigError",
    "LruStore",
    "MAX_ENTRIES_ENV_VAR",
    "MAX_WORKERS_ENV_VAR",
    "OrderedFlush",
    "RETRIES_ENV_VAR",
    "SCRIPT_CACHE_ENV_VAR",
    "Schedule",
    "StreamPlan",
    "StreamScheduler",
    "StreamStage",
    "TaskOutcome",
    "WINDOW_ENV_VAR",
    "WORKER_LOST_SLUG",
    "chain_results",
    "env_max_entries",
    "process_backend_available",
    "run_plans",
    "simulate_stream",
    "simulate_stream_chunks",
]
