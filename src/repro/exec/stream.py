"""Streaming DAG scheduler: stages flow into consumers as results land.

Every sharded workload runs here. A study opens a :class:`StreamPlan`,
whose :class:`StreamStage` a :class:`StreamScheduler` drains; the plan
then finalizes the run:

- A :class:`StreamStage` is one producer: a list of tasks plus the
  function that executes them. Its declared consumers are the
  downstream DAG nodes — *ordered* consumers see ``(index, outcome)``
  pairs in exact task order (via a prefix-flush buffer, preserving the
  selection-order aggregation the byte-identity contract depends on),
  plain consumers see outcomes in completion order (checkpoints and
  progress reporters).
- :class:`StreamScheduler` drains any number of stages through one
  shared worker pool — in-process at one worker, a process pool
  otherwise — round-robin interleaving their chunks so a mixed
  static+dynamic workload keeps every worker busy while one study's
  straggler runs.
- **Work stealing**: when the submit queue runs dry and workers idle,
  the largest still-queued multi-task chunk is cancelled, split in
  half, and re-dispatched — the tail of a run parallelizes instead of
  serializing behind one straggler chunk.
- **Failure repair**: a dead worker breaks the pool and loses its
  in-flight chunks; the scheduler rebuilds the executor and re-queues
  each lost chunk, bisecting multi-task chunks so a poisoned task is
  isolated in ``log2(chunk)`` retries. A single task that keeps killing
  its worker is quarantined after ``ExecConfig.max_attempts`` failures:
  the stage's ``on_lost`` hook builds a synthetic outcome (plans map it
  to the ``worker_lost`` drop-taxonomy slug) and the study finishes
  instead of aborting.
- :class:`StreamPlan` is the shard lifecycle every workload shares:
  spans, the selection-order merge, worker attribution, exec metrics
  and quarantine. A workload subclasses it and supplies only its tasks,
  a task function, a merge callback, a lost-task outcome and a result.

Determinism: per-stage results are delivered to ordered consumers in
task order no matter how chunks complete, steal, or repair, so study
results are byte-identical at any worker count and backend. Execution
*metrics* never come from live scheduling — they are replayed from
:func:`repro.exec.schedule.simulate_stream_chunks` over measured task
costs (see :meth:`StreamScheduler.simulate`), so steal counts, worker
attribution and critical paths are pure functions of the costs.
"""

import concurrent.futures
import contextlib
import functools
import multiprocessing
from concurrent.futures import BrokenExecutor

from repro.errors import WorkerLostError, error_slug
from repro.exec.config import BACKEND_PROCESS
from repro.exec.schedule import simulate_stream_chunks
from repro.obs import (
    DROPS_METRIC,
    EXEC_BACKEND_METRIC,
    EXEC_CACHE_EVICTIONS_METRIC,
    EXEC_CHUNK_SIZE_METRIC,
    EXEC_CHUNKS_REPAIRED_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_QUEUE_DEPTH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_TASKS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    EXEC_WORKERS_METRIC,
    Span,
    bind_context,
)

#: Drop-taxonomy slug quarantined tasks surface under.
WORKER_LOST_SLUG = error_slug(WorkerLostError)


def chain_results(*callbacks):
    """Fan one completion-order consumer slot out to several hooks.

    Nones are dropped; with nothing left the chain is None (so stages
    skip it entirely), and a single survivor is returned as-is. Lets the
    pipeline stack its checkpoint sink and a progress reporter on the
    same stage without either knowing about the other.
    """
    hooks = [cb for cb in callbacks if cb is not None]
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]

    def fanout(value):
        for hook in hooks:
            hook(value)

    begins = [hook.begin for hook in hooks if hasattr(hook, "begin")]
    if begins:
        # Progress reporters learn the expected total via begin();
        # forward it so chaining keeps their percentages working.
        def begin(total):
            for hook_begin in begins:
                hook_begin(total)

        fanout.begin = begin
    return fanout


def process_backend_available():
    """True when this platform can actually run a process pool."""
    try:
        # Raises ImportError on platforms without a working sem_open.
        import multiprocessing.synchronize  # noqa: F401
    except (ImportError, OSError):
        return False
    return True


def _pool_context():
    """Prefer fork: workers inherit modules and the parent's hash seed."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class OrderedFlush:
    """Deliver ``(position, value)`` pushes to a callback in order.

    Out-of-order completions are buffered; every push flushes the
    longest contiguous prefix. This is the piece that lets aggregation
    consume a stream without giving up selection-order determinism.
    """

    def __init__(self, callback):
        self.callback = callback
        self.next = 0
        self._buffer = {}

    def push(self, position, value):
        self._buffer[position] = value
        while self.next in self._buffer:
            self.callback(self.next, self._buffer.pop(self.next))
            self.next += 1

    @property
    def buffered(self):
        """Out-of-order results currently held back."""
        return len(self._buffer)


class StreamStage:
    """One producer stage and its declared downstream consumers.

    ``fn`` maps a single task to an outcome and must be picklable for
    the process backend. ``on_lost`` maps a task to a synthetic outcome
    when the task is quarantined after repeated worker death; without
    one, quarantine raises :class:`~repro.errors.WorkerLostError`.
    ``chunk_size`` overrides the scheduler config's chunk size for this
    stage (per-app crawl shards ride one per dispatch, static tasks ride
    eight). ``context`` is an optional zero-argument context-manager
    factory the scheduler enters around every inline task execution and
    every consumer delivery for this stage — how a study keeps its own
    tracer/log context active per event while sharing the scheduler
    with another study, instead of holding a contextvar across the
    interleaved run.
    """

    def __init__(self, name, tasks, fn, on_lost=None, chunk_size=None,
                 context=None):
        self.name = name
        self.tasks = list(tasks)
        self.fn = fn
        self.on_lost = on_lost
        self.chunk_size = chunk_size
        self.context = context
        self._ordered = []
        self._sinks = []

    def consume_ordered(self, callback):
        """Register ``callback(index, outcome)``, called in task order."""
        self._ordered.append(callback)
        return self

    def consume(self, callback):
        """Register ``callback(outcome)``, called in completion order."""
        if callback is not None:
            self._sinks.append(callback)
        return self

    def _enter(self):
        if self.context is None:
            return contextlib.nullcontext()
        return self.context()


def _run_stream_chunk(fn, tasks):
    """Process-pool entry point: run one chunk of one stage's tasks."""
    return [fn(task) for task in tasks]


class _Chunk:
    """A dispatchable slice of one stage's tasks, with repair history."""

    __slots__ = ("stage", "indices", "attempts")

    def __init__(self, stage, indices, attempts=0):
        self.stage = stage
        self.indices = indices
        self.attempts = attempts

    def split(self):
        mid = len(self.indices) // 2
        return (
            _Chunk(self.stage, self.indices[:mid], self.attempts),
            _Chunk(self.stage, self.indices[mid:], self.attempts),
        )


def _flush_ordered(stage, index, outcome):
    with stage._enter():
        for callback in stage._ordered:
            callback(index, outcome)


class _StageState:
    """Per-stage delivery bookkeeping inside one scheduler run.

    The flush callback closes over the stage, never over this state, so
    a finished run's results are freed by reference counting alone.
    """

    __slots__ = ("stage", "results", "flush")

    def __init__(self, stage):
        self.stage = stage
        self.results = [None] * len(stage.tasks)
        self.flush = OrderedFlush(functools.partial(_flush_ordered, stage))


class StreamScheduler:
    """Drain every stage's tasks through one shared worker pool.

    ``config`` is an :class:`~repro.exec.ExecConfig`; its worker count,
    window, backend and ``max_attempts`` govern the whole run, while
    each stage may pin its own chunk size. After :meth:`run`,
    ``chunk_plan`` records the initial dispatch order (the input to
    :meth:`simulate`), and ``repaired_chunks`` / ``quarantined_tasks`` /
    ``steal_attempts`` count what the repair and steal machinery
    actually did (fault- and timing-dependent, so they feed run-report
    counters but never the deterministic schedule metrics).
    """

    def __init__(self, config, log=None):
        self.config = config
        self.log = log
        #: Initial dispatch order: (stage index, task indices) pairs.
        self.chunk_plan = []
        self.repaired_chunks = 0
        self.quarantined_tasks = 0
        self.steal_attempts = 0

    # -- public API ----------------------------------------------------------

    def run(self, stages):
        """Execute every stage; returns per-stage outcome lists.

        The return value is a list aligned with ``stages``; entry *i* is
        ``stages[i]``'s outcomes in task order. On the process backend
        the pool's workers have exited by the time this returns.
        """
        stages = list(stages)
        states = [_StageState(stage) for stage in stages]
        queue = self._build_queue(stages)
        self.chunk_plan = [(chunk.stage, list(chunk.indices))
                           for chunk in queue]
        backend = self.config.resolved_backend
        if backend == BACKEND_PROCESS and not process_backend_available():
            if self.log is not None:
                self.log.warning("process_backend_unavailable",
                                 fallback="inline")
            backend = None
        if backend == BACKEND_PROCESS and queue:
            self._run_process(stages, states, queue)
        else:
            self._run_inline(stages, states, queue)
        for state in states:
            missing = [i for i, out in enumerate(state.results) if out is None]
            if missing:
                raise WorkerLostError(
                    "stage %r finished with undelivered tasks %r"
                    % (state.stage.name, missing[:5])
                )
        return [state.results for state in states]

    def simulate(self, stage_costs):
        """Deterministic schedule replay of this run's dispatch order.

        ``stage_costs`` is one cost list per stage (task order). Returns
        ``(schedule, assignments)`` where ``schedule`` is the
        :class:`~repro.exec.schedule.Schedule` of the initial chunk plan
        and ``assignments`` maps each stage index to its per-task worker
        list — what the plans stamp onto outcomes and replayed spans. A
        pure function of the costs and plan, so exec metrics stay
        byte-identical between identical runs however the live pool
        interleaved, stole, or repaired.
        """
        chunks = [[stage_costs[stage][i] for i in indices]
                  for stage, indices in self.chunk_plan]
        schedule = simulate_stream_chunks(
            chunks, self.config.max_workers,
            chunk_size=self.config.chunk_size,
        )
        assignments = {stage: [None] * len(costs)
                       for stage, costs in enumerate(stage_costs)}
        flat = 0
        for stage, indices in self.chunk_plan:
            for index in indices:
                assignments[stage][index] = schedule.assignments[flat]
                flat += 1
        return schedule, assignments

    # -- dispatch ------------------------------------------------------------

    def _build_queue(self, stages):
        """Round-robin interleave every stage's chunks into one queue."""
        per_stage = []
        for position, stage in enumerate(stages):
            size = stage.chunk_size or self.config.chunk_size
            per_stage.append([
                _Chunk(position, list(range(start,
                                            min(start + size,
                                                len(stage.tasks)))))
                for start in range(0, len(stage.tasks), size)
            ])
        queue = []
        for round_index in range(max((len(c) for c in per_stage), default=0)):
            for chunks in per_stage:
                if round_index < len(chunks):
                    queue.append(chunks[round_index])
        return queue

    def _deliver(self, stages, states, chunk, outcomes):
        stage = stages[chunk.stage]
        state = states[chunk.stage]
        for index, outcome in zip(chunk.indices, outcomes):
            state.results[index] = outcome
            if stage._sinks:
                with stage._enter():
                    for sink in stage._sinks:
                        sink(outcome)
            state.flush.push(index, outcome)

    def _run_inline(self, stages, states, queue):
        for chunk in queue:
            stage = stages[chunk.stage]
            outcomes = []
            for index in chunk.indices:
                with stage._enter():
                    outcomes.append(stage.fn(stage.tasks[index]))
            self._deliver(stages, states, chunk, outcomes)

    def _run_process(self, stages, states, queue):
        queue = list(queue)
        #: Chunks lost to a pool break, awaiting the isolation repair
        #: pass. A break implicates every in-flight chunk collectively,
        #: so blame can only be assigned by re-running suspects one at a
        #: time: the chunk present when the pool breaks *again* is the
        #: guilty one; everything else succeeds and is delivered.
        suspects = []
        executor = self._new_executor()
        pending = {}
        try:
            while queue or pending or suspects:
                if suspects:
                    executor = self._isolate(stages, states, suspects,
                                             executor)
                    continue
                try:
                    while queue and len(pending) < self.config.window:
                        # Popped only after submit succeeds: a broken
                        # executor must leave the chunk in the queue for
                        # the repair pass.
                        chunk = queue[0]
                        stage = stages[chunk.stage]
                        tasks = [stage.tasks[i] for i in chunk.indices]
                        future = executor.submit(_run_stream_chunk,
                                                 stage.fn, tasks)
                        queue.pop(0)
                        pending[future] = chunk
                    if not pending:
                        continue
                    done, _ = concurrent.futures.wait(
                        pending,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        chunk = pending[future]
                        # result() before pop: a chunk whose worker died
                        # must still be in ``pending`` when the repair
                        # pass collects the lost chunks.
                        outcomes = future.result()
                        del pending[future]
                        self._deliver(stages, states, chunk, outcomes)
                    if not queue:
                        self._try_steal(queue, pending)
                except BrokenExecutor:
                    # Every in-flight chunk died with its worker and the
                    # executor is unusable. Rebuild it and hand the lost
                    # chunks to the isolation pass — without assigning
                    # blame yet, since any one of them may be the killer.
                    lost = list(pending.values())
                    pending.clear()
                    self.repaired_chunks += len(lost)
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_executor()
                    suspects.extend(lost)
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        # Join the workers, so none outlives the run (and their CPU time
        # is accounted to this process's reaped children).
        executor.shutdown(wait=True)

    def _isolate(self, stages, states, suspects, executor):
        """Re-run one suspect chunk with nothing else in flight.

        Success clears the suspect and delivers its results; a repeat
        break implicates exactly this chunk, which then bisects toward
        quarantine via :meth:`_repair`. Returns the (possibly rebuilt)
        executor.
        """
        chunk = suspects.pop(0)
        stage = stages[chunk.stage]
        tasks = [stage.tasks[i] for i in chunk.indices]
        try:
            outcomes = executor.submit(_run_stream_chunk,
                                       stage.fn, tasks).result()
        except BrokenExecutor:
            executor.shutdown(wait=False, cancel_futures=True)
            self._repair(stages, states, chunk, suspects)
            return self._new_executor()
        self._deliver(stages, states, chunk, outcomes)
        return executor

    def _new_executor(self):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.config.max_workers,
            mp_context=_pool_context(),
        )

    # -- stealing and repair -------------------------------------------------

    def _try_steal(self, queue, pending):
        """Split the largest queued-but-unstarted chunk for idle workers.

        Only attempted when the submit queue is dry and fewer chunks are
        pending than there are workers — the signature of a straggling
        tail. ``Future.cancel`` succeeds only for futures the executor
        has not started, so a running chunk is never disturbed; the
        reclaimed tasks go back to the front of the queue as two halves
        and the next submit loop fans them out.
        """
        if len(pending) >= self.config.max_workers:
            return
        candidates = sorted(
            (future for future, chunk in pending.items()
             if len(chunk.indices) > 1),
            key=lambda future: -len(pending[future].indices),
        )
        for future in candidates:
            if future.cancel():
                chunk = pending.pop(future)
                first, second = chunk.split()
                queue.insert(0, second)
                queue.insert(0, first)
                self.steal_attempts += 1
                return

    def _repair(self, stages, states, chunk, suspects):
        """One isolated chunk proved guilty: bisect toward quarantine."""
        stage = stages[chunk.stage]
        attempts = chunk.attempts + 1
        if len(chunk.indices) > 1:
            # Bisect: the poisoned task is cornered in log2(chunk)
            # isolation rounds while its innocent neighbours succeed on
            # their first retry.
            first, second = chunk.split()
            first.attempts = second.attempts = attempts
            suspects.insert(0, second)
            suspects.insert(0, first)
            self.repaired_chunks += 2
        elif attempts < self.config.max_attempts:
            suspects.insert(0, _Chunk(chunk.stage, chunk.indices, attempts))
            self.repaired_chunks += 1
        else:
            index = chunk.indices[0]
            task = stage.tasks[index]
            if stage.on_lost is None:
                raise WorkerLostError(
                    "task %d of stage %r lost its worker %d times"
                    % (index, stage.name, attempts)
                )
            with stage._enter():
                outcome = stage.on_lost(task)
            self.quarantined_tasks += 1
            if self.log is not None:
                self.log.warning("task_quarantined", stage=stage.name,
                                 index=index, attempts=attempts)
            self._deliver(stages, states, chunk, [outcome])


# -- the shared shard lifecycle ------------------------------------------------


class TaskOutcome:
    """The fields every workload's per-task outcome carries.

    ``position`` is the task's place in selection order; ``error`` is a
    drop-taxonomy slug (None on success) and ``message`` its detail;
    ``cost`` is the measured clock units; ``spans`` holds a task's
    exported span trees (tasks that traced into their own tracer) and
    ``span`` the live span of an in-process one; ``worker`` is the
    simulated worker, stamped at finalize. ``cached`` marks an outcome a
    cache served; ``cacheable`` is False for outcomes a cache must not
    keep (lost tasks, failed downloads, cache hits).
    """

    __slots__ = ("position", "package", "error", "message", "cost",
                 "spans", "span", "worker", "cached", "cacheable")

    def __init__(self, position, package, error=None, message=None):
        self.position = position
        self.package = package
        self.error = error
        self.message = message
        self.cost = 0.0
        self.spans = None
        self.span = None
        self.worker = None
        self.cached = False
        self.cacheable = True


@contextlib.contextmanager
def _study_context(obs, labels):
    with obs.activate(), bind_context(**labels):
        yield


class StreamPlan:
    """One study's opened run: the shard lifecycle every workload shares.

    Opening a plan enters the study's ``root`` span, calls
    :meth:`prepare` for the tasks (plus any cache-served outcomes),
    enters the ``execute`` span and builds :attr:`stage`. Both spans are
    held open on the study's own tracer — never through an ambient
    contextvar — so several plans can share one scheduler. As outcomes
    stream in, the plan merges them in exact selection order: it replays
    each task's exported span trees under ``execute``, counts a drop for
    every failed outcome and hands the outcome to :meth:`merge`.
    :meth:`finalize` stamps worker attribution from the shared schedule
    replay, records exec and scheduler metrics (plus the selection-order
    digest replay of a per-class cache, when the workload has one),
    closes both spans and returns :meth:`build_result`. If anything
    raises, :meth:`abort` closes the open spans with error status.
    Either way the plan then drops its stage and outcomes, so a finished
    run is freed by reference counting alone.

    A workload subclasses this, sets :attr:`name` (the stage name and the
    ``stage`` log label) and :attr:`root`, and supplies :meth:`prepare`,
    :meth:`task_fn`, :meth:`merge`, :meth:`lost` and :meth:`build_result`.
    A workload with a per-class digest cache sets :attr:`digest_cache`
    and :attr:`digest_metrics`; :attr:`eviction_tiers` names the LRU
    tiers whose eviction deltas the run reports.
    """

    name = None
    root = "run"
    #: The ``ClassFactsCache`` whose digests the run replays, or None.
    digest_cache = None
    #: ``(name, help)`` of the hits, misses, bytes-deduped and
    #: time-saved counters the digest replay feeds.
    digest_metrics = ()
    #: ``{tier: object with .evictions}`` for the eviction counter.
    eviction_tiers = {}

    def __init__(self, study, sinks=None, labels=None, **root_attrs):
        self.obs = study.obs
        self.config = study.exec_config
        self.log = study.log
        self._context = functools.partial(_study_context, self.obs,
                                          labels or {"stage": self.name})
        #: Executed outcomes in task order (quarantined ones included).
        self.executed = []
        #: Every outcome, by selection position (filled as they merge).
        self.outcomes = []
        #: Replayed span roots by position, until finalize stamps them.
        self._parked = {}
        #: Context managers of the spans still open, innermost last.
        self._open = []
        self.stage = None
        self._flush = None
        try:
            with self._context():
                self.root_span = self._enter(self.obs.span(self.root,
                                                           **root_attrs))
                self._prior = (set(self.digest_cache.known_digests())
                               if self.digest_cache is not None else ())
                self._evictions = {tier: cache.evictions for tier, cache
                                   in self.eviction_tiers.items()}
                tasks, served = self.prepare()
                self.outcomes = [None] * (len(tasks) + len(served))
                self.stage = StreamStage(
                    self.name, tasks, self.task_fn(), on_lost=self._on_lost,
                    chunk_size=self.config.chunk_size, context=self._context,
                )
                self.stage.consume_ordered(self._on_ordered)
                self.stage.consume(sinks)
                self.execute_span = self._enter(self.obs.span(
                    "execute", backend=self.config.resolved_backend,
                    workers=self.config.max_workers, tasks=len(tasks),
                ))
                if hasattr(sinks, "begin"):
                    sinks.begin(len(tasks))
                # Cache-served outcomes flow through the same flush, so
                # merge sees one selection-order stream.
                self._flush = OrderedFlush(self._merge)
                for outcome in served:
                    self._flush.push(outcome.position, outcome)
        except BaseException as exc:
            self.abort(exc)
            raise

    # -- what a workload supplies --------------------------------------------

    def prepare(self):
        """``(tasks, served)``: the tasks to execute, in selection order,
        and the outcomes served without executing (e.g. cache hits)."""
        raise NotImplementedError

    def task_fn(self):
        """The per-task callable (picklable for the process backend)."""
        raise NotImplementedError

    def merge(self, outcome):
        """Fold one outcome into the run's result, in selection order."""
        raise NotImplementedError

    def lost(self, task, message):
        """The outcome of a task quarantined after repeated worker death.

        The plan stamps it ``worker_lost`` and uncacheable.
        """
        raise NotImplementedError

    def build_result(self):
        """The run's result; called at finalize, inside the root span."""
        raise NotImplementedError

    # -- running ---------------------------------------------------------------

    def run(self):
        """Execute this plan alone on a fresh scheduler; returns the result."""
        return run_plans([self], self.config, log=self.log)[0]

    def costs(self):
        """Measured per-task costs, in task order (the simulate input)."""
        return [outcome.cost for outcome in self.executed]

    def finalize(self, scheduler, schedule, assignments):
        """Close the run and return its result.

        ``schedule`` is the (possibly shared) simulated schedule and
        ``assignments`` this stage's per-task workers, both from
        :meth:`StreamScheduler.simulate`.
        """
        try:
            with self._context():
                self._exit()  # execute
                self._assign_workers(assignments)
                self._record_exec_metrics(scheduler, schedule, assignments)
                self._record_digest_metrics()
                self._record_eviction_metrics()
                result = self.build_result()
                self._exit()  # root
        except BaseException as exc:
            self.abort(exc)
            raise
        self._release()
        return result

    def abort(self, exc):
        """Close every span still open with ``exc`` recorded; free the run."""
        while self._open:
            self._open.pop().__exit__(type(exc), exc, exc.__traceback__)
        self._release()

    def _enter(self, span_cm):
        span = span_cm.__enter__()
        self._open.append(span_cm)
        return span

    def _exit(self):
        self._open.pop().__exit__(None, None, None)

    def _release(self):
        # The stage's consumers and the flush's callback are bound to
        # this plan; dropping them breaks the cycles, freeing the tasks
        # and outcomes now rather than at the next full collection.
        self.stage = None
        self._flush = None
        self.executed = []
        self.outcomes = []
        self._parked = {}

    # -- streaming merge -------------------------------------------------------

    def _on_ordered(self, index, outcome):
        self.executed.append(outcome)
        self._flush.push(outcome.position, outcome)

    def _on_lost(self, task):
        message = "worker lost after %d attempts" % self.config.max_attempts
        outcome = self.lost(task, message)
        outcome.error = WORKER_LOST_SLUG
        outcome.message = message
        outcome.cacheable = False
        return outcome

    def _merge(self, position, outcome):
        self.outcomes[position] = outcome
        with bind_context(package=outcome.package):
            self._replay_spans(outcome)
            if outcome.error is not None:
                self.obs.counter(
                    DROPS_METRIC,
                    "Apps dropped before successful analysis, by reason.",
                    ("reason",),
                ).labels(reason=outcome.error).inc()
            self.merge(outcome)

    def _replay_spans(self, outcome):
        """Attach a task's exported span trees under ``execute``.

        The trace keeps one shape whichever side of the process boundary
        the task ran on; the roots park until finalize stamps workers.
        """
        tracer = self.obs.tracer
        for data in outcome.spans or ():
            root = Span.from_dict(data)
            self._parked.setdefault(outcome.position, []).append(root)
            self.execute_span.children.append(root)
            if tracer.on_span_end is not None:
                for span in root.iter_spans():
                    tracer.on_span_end(span)

    # -- finalize --------------------------------------------------------------

    def _assign_workers(self, assignments):
        """Stamp deterministic worker attribution onto executed outcomes."""
        for outcome, worker in zip(self.executed, assignments):
            outcome.worker = worker
            label = "w%d" % worker
            if outcome.span is not None:
                outcome.span.set_attribute("worker", label)
            for root in self._parked.pop(outcome.position, ()):
                root.set_attribute("worker", label)

    def _record_exec_metrics(self, scheduler, schedule, assignments):
        """Deterministic execution metrics plus scheduler health counters.

        Worker busy time is this stage's own share of the (possibly
        shared) schedule; the makespan and steal count are shared
        figures. Repair and quarantine counts are what the live repair
        pass actually did (nonzero only under worker faults).
        """
        config = self.config
        obs = self.obs
        obs.gauge(EXEC_WORKERS_METRIC, "Configured worker count.",
                  ).set(config.max_workers)
        obs.gauge(EXEC_CHUNK_SIZE_METRIC, "Tasks per worker dispatch.",
                  ).set(config.chunk_size)
        obs.gauge(
            EXEC_BACKEND_METRIC, "Resolved execution backend (info).",
            ("backend",),
        ).labels(backend=config.resolved_backend).set(1)
        task_count = len(self.executed)
        chunks = -(-task_count // config.chunk_size) if task_count else 0
        obs.gauge(
            EXEC_QUEUE_DEPTH_METRIC,
            "High-water mark of chunks in the bounded work queue.",
        ).set(min(config.window, chunks))
        tasks = obs.counter(
            EXEC_TASKS_METRIC, "Per-app tasks, by outcome.", ("status",),
        )
        for outcome in self.outcomes:
            if outcome.cached:
                tasks.labels(status="cached").inc()
            elif outcome.error is not None:
                tasks.labels(status="failed").inc()
            else:
                tasks.labels(status="ok").inc()
        busy = [0.0] * config.max_workers
        for worker, cost in zip(assignments, self.costs()):
            busy[worker] += cost
        busy_counter = obs.counter(
            EXEC_WORKER_BUSY_METRIC,
            "Clock units each worker spent analyzing apps.",
            ("worker",),
        )
        for worker, amount in enumerate(busy):
            if amount:
                busy_counter.labels(worker="w%d" % worker).inc(amount)
        obs.gauge(
            EXEC_CRITICAL_PATH_METRIC,
            "Makespan of the streamed worker schedule.",
        ).set(schedule.critical_path)
        obs.counter(
            EXEC_STEALS_METRIC,
            "Work-steal events in the simulated streamed schedule.",
        ).inc(schedule.steals)
        obs.counter(
            EXEC_CHUNKS_REPAIRED_METRIC,
            "Chunks re-run after losing their worker mid-flight.",
        ).inc(scheduler.repaired_chunks)
        obs.counter(
            EXEC_TASKS_QUARANTINED_METRIC,
            "Tasks dropped as worker_lost after the retry budget.",
        ).inc(scheduler.quarantined_tasks)

    def _record_digest_metrics(self):
        """Deterministic per-class cache accounting by selection-order replay.

        Worker-local hit counts depend on chunk scheduling, so they never
        feed metrics. Instead: merge every task's shipped facts into the
        corpus cache, then replay each outcome's ordered digest stream in
        selection order — a digest is a hit iff it was cached before this
        run or already seen earlier in the replay. The result is
        byte-identical at any worker count and backend.
        """
        cache = self.digest_cache
        if cache is None:
            return
        for outcome in self.outcomes:
            if outcome.new_facts:
                cache.merge(outcome.new_facts)
        seen = set()
        hits = misses = deduped = 0
        saved = 0.0
        for outcome in self.outcomes:
            for digest in outcome.class_digests or ():
                if digest in self._prior or digest in seen:
                    hits += 1
                    facts = cache.peek(digest)
                    if facts is not None:
                        deduped += facts.canonical_size
                        saved += facts.cost
                else:
                    misses += 1
                    seen.add(digest)
        for (name, help), value in zip(self.digest_metrics,
                                       (hits, misses, deduped, saved)):
            self.obs.counter(name, help).inc(value)

    def _record_eviction_metrics(self):
        """Per-tier LRU eviction deltas for this run (nonzero only)."""
        if not self.eviction_tiers:
            return
        counter = self.obs.counter(
            EXEC_CACHE_EVICTIONS_METRIC,
            "LRU evictions from the two-tier analysis cache, by tier.",
            ("tier",),
        )
        for tier, cache in self.eviction_tiers.items():
            delta = cache.evictions - self._evictions[tier]
            if delta:
                counter.labels(tier=tier).inc(delta)


def run_plans(plans, config, log=None):
    """Drain every plan's stage through one scheduler; finalize each.

    One shared schedule replay attributes workers and makespan across
    the stages. Returns the plans' results, in order. If anything
    raises, every plan still open closes its spans with the error.
    """
    scheduler = StreamScheduler(config, log=log)
    try:
        scheduler.run([plan.stage for plan in plans])
        schedule, per_stage = scheduler.simulate(
            [plan.costs() for plan in plans]
        )
        return [plan.finalize(scheduler, schedule, per_stage[position])
                for position, plan in enumerate(plans)]
    except BaseException as exc:
        for plan in plans:
            plan.abort(exc)
        raise
