"""repro.exec — parallel execution for the corpus-level studies.

The paper's static pipeline covers ~146.5K APKs; at that scale per-app
analysis must be batched across workers (the same move DroidMeter and
Rapoport et al. made). This package provides the pieces the studies
shard themselves with:

- **configuration** (:mod:`repro.exec.config`): :class:`ExecConfig` reads
  ``REPRO_MAX_WORKERS`` and resolves the backend (``process`` when more
  than one worker is requested, ``inline`` otherwise).
- **the executor** (:mod:`repro.exec.stream`): every sharded workload
  opens a :class:`StreamPlan` — the shard lifecycle the workloads
  share: spans, selection-order merge, worker attribution, exec metrics
  and quarantine — whose stage a :class:`StreamScheduler` drains,
  in-process at one worker and on a process pool with a bounded
  in-flight chunk window otherwise. Results flow to consumers as they
  complete, with cancel-and-split work stealing for straggler tails
  and a worker-death repair pass that bisects lost chunks and
  quarantines a repeat offender into the drop taxonomy after
  ``ExecConfig.max_attempts`` attempts.
- **result cache** (:mod:`repro.exec.cache`): :class:`AnalysisCache`, a
  two-tier LRU-bounded store — SHA-256-keyed per-APK outcomes on top of a
  corpus-wide content-addressed :class:`ClassFactsCache`, so repeated
  runs skip whole apps and shared SDK classes are decompiled and parsed
  once per corpus (``REPRO_CACHE_MAX_ENTRIES`` bounds both tiers,
  ``REPRO_CACHE_DIR`` adds an on-disk class-facts layer,
  ``REPRO_CACHE=0`` disables every content-addressed tier).
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
    PARSED_SCRIPT_KIND,
    env_max_entries,
)
from repro.exec.config import (
    BACKEND_AUTO,
    BACKEND_INLINE,
    BACKEND_PROCESS,
    CACHE_ENV_VAR,
    DEFAULT_MAX_ATTEMPTS,
    ExecConfig,
    ExecConfigError,
    MAX_WORKERS_ENV_VAR,
)
from repro.exec.schedule import Schedule, simulate_stream
from repro.exec.stream import (
    OrderedFlush,
    StreamPlan,
    StreamScheduler,
    StreamStage,
    TaskOutcome,
    WORKER_LOST_SLUG,
    chain_results,
    process_backend_available,
)

__all__ = [
    "AnalysisCache",
    "BACKEND_AUTO",
    "BACKEND_INLINE",
    "BACKEND_PROCESS",
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CLASS_FACTS_KIND",
    "ClassFactsCache",
    "DEFAULT_MAX_ATTEMPTS",
    "ENDPOINT_SUMMARY_KIND",
    "ExecConfig",
    "ExecConfigError",
    "LruStore",
    "MAX_ENTRIES_ENV_VAR",
    "MAX_WORKERS_ENV_VAR",
    "OrderedFlush",
    "PARSED_SCRIPT_KIND",
    "Schedule",
    "StreamPlan",
    "StreamScheduler",
    "StreamStage",
    "TaskOutcome",
    "WORKER_LOST_SLUG",
    "chain_results",
    "env_max_entries",
    "process_backend_available",
    "simulate_stream",
]
