"""Critical-path profiling and flamegraph export over telemetry.

Two analysis layers on top of persisted (or live) observability state:

- :func:`profile` walks a span forest and computes per-stage **self
  time** (duration minus child durations — what the stage itself cost,
  not what it contained) and the **critical path**: the longest
  dependency chain through the tree, where sibling spans attributed to
  different workers (``worker`` span attribute, set by the exec layer's
  deterministic schedule simulation) run in parallel and everything else
  runs sequentially. The run report's "Profile" section is rendered from
  this.
- :func:`flamegraph` folds the same forest into collapsed-stack text
  (``run;execute;analyze_app 1234`` per line) renderable by standard
  flamegraph tooling. Counts are integer micro-clock-units, stacks are
  span-name paths, and lines are sorted — so under a deterministic
  :class:`~repro.obs.metrics.TickClock` the output is byte-identical
  across worker counts and backends.

``python -m repro.results run`` profiles any recorded run and
``python -m repro.results flamegraph`` folds it.
"""

#: Flamegraph counts are durations scaled to integer micro-clock-units.
_FLAME_SCALE = 1_000_000


# -- span-tree profiling ------------------------------------------------------


def span_self_time(span):
    """Duration minus child durations, clamped at zero (open spans: 0).

    Spans whose children carry a ``worker`` attribute are *scheduler*
    spans — "execute", a crawl fan-out — and get self time 0: their
    apparent own time is clock bookkeeping that differs by backend
    (inline children tick the parent's clock; process workers tick
    their own), not work, and attributing it would make otherwise
    identical runs profile differently across backends.
    """
    if span.end is None:
        return 0.0
    if any(child.attributes.get("worker") is not None
           for child in span.children):
        return 0.0
    children = sum(child.duration for child in span.children
                   if child.end is not None)
    return max(0.0, span.duration - children)


def _child_groups(span):
    """Split children into (sequential, parallel worker groups).

    Children carrying a ``worker`` attribute are shards the exec layer's
    deterministic schedule assigned to workers: same worker value means
    sequential on that worker, different values mean parallel. Children
    without the attribute are ordinary nested stages, sequential with
    their siblings.
    """
    sequential = []
    workers = {}
    for child in span.children:
        worker = child.attributes.get("worker")
        if worker is None:
            sequential.append(child)
        else:
            workers.setdefault(worker, []).append(child)
    return sequential, workers


def critical_path(span):
    """(length, spans) of the longest dependency chain through ``span``.

    Sequential children all lie on the path; of parallel worker groups
    only the slowest group does (ties break on the lowest worker label,
    keeping the walk deterministic). The returned spans are in walk
    order, starting with ``span`` itself.
    """
    length = span_self_time(span)
    path = [span]
    sequential, workers = _child_groups(span)
    for child in sequential:
        child_length, child_path = critical_path(child)
        length += child_length
        path.extend(child_path)
    if workers:
        best = None
        for worker in sorted(workers):
            group_length = 0.0
            group_path = []
            for child in workers[worker]:
                child_length, child_path = critical_path(child)
                group_length += child_length
                group_path.extend(child_path)
            if best is None or group_length > best[0]:
                best = (group_length, group_path)
        length += best[0]
        path.extend(best[1])
    return length, path


class StageProfile:
    """Aggregated timing for one span name across a forest."""

    __slots__ = ("name", "self_time", "total_time", "calls", "path_time")

    def __init__(self, name):
        self.name = name
        self.self_time = 0.0
        self.total_time = 0.0
        self.calls = 0
        #: Self time of this stage's spans that lie on the critical path.
        self.path_time = 0.0

    def as_dict(self):
        return {
            "stage": self.name,
            "self": self.self_time,
            "total": self.total_time,
            "calls": self.calls,
            "critical_path": self.path_time,
        }

    def __repr__(self):
        return "StageProfile(%s, self=%.3f, calls=%d)" % (
            self.name, self.self_time, self.calls
        )


class Profile:
    """Per-stage self times plus the forest's critical path."""

    def __init__(self, stages, critical_length, path):
        #: ``{span name: StageProfile}``.
        self.stages = stages
        #: Length of the critical path through the whole forest.
        self.critical_length = critical_length
        #: The spans on that path, in walk order.
        self.path = path

    def ordered(self):
        """Stages by descending self time (name-tiebroken, stable)."""
        return sorted(self.stages.values(),
                      key=lambda stage: (-stage.self_time, stage.name))

    def path_share(self, name):
        """Fraction of the critical path spent in ``name``'s self time."""
        stage = self.stages.get(name)
        if stage is None or not self.critical_length:
            return 0.0
        return stage.path_time / self.critical_length

    def __repr__(self):
        return "Profile(%d stages, critical=%.3f)" % (
            len(self.stages), self.critical_length
        )


def profile(roots):
    """Build a :class:`Profile` for a span forest (or a Tracer's roots)."""
    roots = _coerce_roots(roots)
    stages = {}
    for root in roots:
        for span in root.iter_spans():
            stage = stages.get(span.name)
            if stage is None:
                stage = stages[span.name] = StageProfile(span.name)
            stage.self_time += span_self_time(span)
            if span.end is not None:
                stage.total_time += span.duration
                stage.calls += 1
    # Roots execute sequentially (one study run after another), so the
    # forest's critical path is the sum of the per-root paths.
    critical_length = 0.0
    path = []
    for root in roots:
        root_length, root_path = critical_path(root)
        critical_length += root_length
        path.extend(root_path)
    for span in path:
        stages[span.name].path_time += span_self_time(span)
    return Profile(stages, critical_length, path)


def _coerce_roots(roots):
    if hasattr(roots, "roots"):  # a Tracer
        return list(roots.roots)
    return list(roots)


# -- flamegraph export --------------------------------------------------------


def flamegraph(roots):
    """Fold a span forest into collapsed-stack flamegraph text.

    One ``frame;frame;frame count`` line per distinct span-name stack,
    counts in integer micro-clock-units of *self* time, lines sorted
    lexicographically. Zero-self-time stacks are kept (they document
    structure); open spans contribute no time. The output depends only
    on span names and durations — never on attributes, worker
    assignments or completion order — so deterministic runs fold to
    byte-identical text at any worker count or backend.
    """
    folded = {}

    def walk(span, prefix):
        stack = prefix + (span.name,)
        weight = int(round(span_self_time(span) * _FLAME_SCALE))
        folded[stack] = folded.get(stack, 0) + weight
        for child in span.children:
            walk(child, stack)

    for root in _coerce_roots(roots):
        walk(root, ())
    lines = ["%s %d" % (";".join(stack), count)
             for stack, count in sorted(folded.items())]
    return "\n".join(lines) + "\n" if lines else ""
