"""Deterministic schedule accounting for streamed runs.

Real process pools complete chunks in timing-dependent order, which would
make worker-attribution metrics (and therefore run reports) flap between
identical runs. Instead, every study measures each task's cost and
replays its dispatch order here: an event-driven model of the streaming
scheduler (:mod:`repro.exec.stream`) in which chunks leave one FIFO
queue for the earliest-free worker and, with ``steal`` on, an idle
worker takes the tail half of the most-loaded worker's unstarted tasks —
the limit the real scheduler's cancel-and-split steal policy approaches
at task granularity. With ``steal=False`` the replay is a plain greedy
FIFO drain: each chunk runs on the earliest-free worker.

The result is a pure function of the costs, so per-worker busy times,
steal counts and the reported parallel speedup — ``total work /
critical path`` — stay byte-identical between identical runs no matter
how the actual pool interleaved.
"""

import heapq
from collections import deque

from repro.exec.config import ExecConfigError


class Schedule:
    """Outcome of one simulated run: assignments, busy times, makespan."""

    def __init__(self, max_workers, chunk_size, assignments, worker_busy,
                 makespan, steals=0):
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: Worker index per task, in task order.
        self.assignments = list(assignments)
        #: Total busy time per worker index.
        self.worker_busy = list(worker_busy)
        #: Finish time of the last task (a starved worker's idle gaps
        #: included).
        self.makespan = makespan
        #: Work-stealing events.
        self.steals = steals

    @property
    def critical_path(self):
        """The makespan: what a run on real cores approaches."""
        return self.makespan

    @property
    def total_busy(self):
        return sum(self.worker_busy)

    @property
    def speedup(self):
        """Work over makespan — 1.0 for an empty or serial schedule."""
        critical = self.critical_path
        return self.total_busy / critical if critical else 1.0

    def __repr__(self):
        return "Schedule(%d tasks on %d workers, %.2fx, %d steals)" % (
            len(self.assignments), self.max_workers, self.speedup,
            self.steals,
        )


def simulate_stream(costs, max_workers, chunk_size, steal=True):
    """Replay ``costs`` split into consecutive ``chunk_size`` chunks.

    Convenience wrapper over :func:`simulate_stream_chunks`, chunking
    the costs exactly as a single-stage run dispatches its tasks.
    """
    if chunk_size < 1:
        raise ExecConfigError(
            "simulate_stream needs chunk_size >= 1, got %d" % chunk_size
        )
    chunks = [costs[start:start + chunk_size]
              for start in range(0, len(costs), chunk_size)]
    return simulate_stream_chunks(chunks, max_workers, steal=steal,
                                  chunk_size=chunk_size)


def simulate_stream_chunks(chunks, max_workers, steal=True, chunk_size=None):
    """Event-driven replay of the streaming scheduler's policy.

    ``chunks`` is a list of cost lists in dispatch order — heterogeneous
    sizes are fine, which is how interleaved multi-study runs are
    modeled (each stage contributes its own chunks to one queue). A free
    worker takes the next queued chunk and runs its tasks consecutively;
    when the queue is dry and ``steal`` is on, an idle worker steals the
    tail half of the unstarted tasks of the most-loaded worker (ties
    break on the lowest worker index). Deterministic: all ties break on
    (time, worker index).

    Returns a :class:`Schedule` whose ``assignments`` are flat and
    follow chunk order.
    """
    if max_workers < 1:
        raise ExecConfigError(
            "simulate_stream needs max_workers >= 1, got %d" % max_workers
        )
    # Flatten to (flat task index, cost); each chunk keeps its identity
    # as one entry of the FIFO queue.
    queue = deque()
    flat = 0
    for chunk in chunks:
        if chunk:
            queue.append([(flat + offset, cost)
                          for offset, cost in enumerate(chunk)])
            flat += len(chunk)
    assignments = [None] * flat
    busy = [0.0] * max_workers

    #: Per-worker list of unstarted (index, cost) tasks.
    local = [[] for _ in range(max_workers)]
    steals = 0
    makespan = 0.0
    # Worker wake events: (time, worker). Every worker starts free at 0.
    events = [(0.0, worker) for worker in range(max_workers)]
    heapq.heapify(events)
    idle = set()

    def next_task(worker):
        """The next task for ``worker``, or None."""
        nonlocal steals
        if local[worker]:
            return local[worker].pop(0)
        if queue:
            local[worker] = queue.popleft()
            return local[worker].pop(0)
        if steal:
            victims = [
                v for v in range(max_workers) if v != worker and local[v]
            ]
            if victims:
                victim = max(
                    victims,
                    key=lambda v: (sum(cost for _, cost in local[v]), -v),
                )
                count = max(1, len(local[victim]) // 2)
                local[worker] = local[victim][-count:]
                del local[victim][-count:]
                steals += 1
                return local[worker].pop(0)
        return None

    while events:
        now, worker = heapq.heappop(events)
        task = next_task(worker)
        if task is None:
            idle.add(worker)
            continue
        index, cost = task
        finish = now + cost
        assignments[index] = worker
        busy[worker] += cost
        makespan = max(makespan, finish)
        heapq.heappush(events, (finish, worker))
        # A completion creates steal opportunities: wake dormant workers.
        while idle:
            heapq.heappush(events, (finish, idle.pop()))

    if chunk_size is None:
        chunk_size = max((len(chunk) for chunk in chunks), default=1)
    return Schedule(max_workers, chunk_size, assignments, busy, makespan,
                    steals)
