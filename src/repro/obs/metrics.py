"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry follows the Prometheus data model at library scale: a metric
has a name, a help string and optional label names; ``labels(...)``
returns a child time series for one label-value combination. Values are
plain Python numbers — no wall-clock dependence anywhere — so two runs of
a deterministic study produce bit-identical registries.

The registry exports to JSON and back via :meth:`MetricsRegistry.as_dict`
/ :meth:`MetricsRegistry.from_dict`.
"""


class TickClock:
    """Deterministic clock: every call advances time by a fixed step.

    The observability layer never reads the wall clock unless a real clock
    (e.g. ``time.perf_counter``) is explicitly injected; by default spans
    and timers consume ticks from an instance of this class, so durations
    are a deterministic function of the number of instrumented operations.
    """

    def __init__(self, start=0.0, step=0.001):
        self._now = float(start)
        self.step = float(step)

    def __call__(self):
        now = self._now
        self._now += self.step
        return now

    def __repr__(self):
        return "TickClock(now=%.3f, step=%.3f)" % (self._now, self.step)


#: Default histogram bucket upper bounds (seconds-flavored, Prometheus-like).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Raised for inconsistent metric declarations or label usage."""


class _Metric:
    """Shared parent/child machinery for all metric kinds."""

    kind = None

    def __init__(self, name, help="", labelnames=()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children = {}
        self._parent = None

    # -- labelled children ---------------------------------------------------

    def labels(self, *values, **kv):
        """Return the child series for one label-value combination."""
        if not self.labelnames:
            raise MetricError("%s has no labels" % self.name)
        if values and kv:
            raise MetricError("pass label values positionally or by name")
        if kv:
            try:
                values = tuple(str(kv.pop(name)) for name in self.labelnames)
            except KeyError as exc:
                raise MetricError(
                    "missing label %s for %s" % (exc, self.name)
                )
            if kv:
                raise MetricError(
                    "unknown labels %s for %s" % (sorted(kv), self.name)
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise MetricError(
                "%s expects labels %s, got %r"
                % (self.name, self.labelnames, values)
            )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            child._parent = self
            self._children[values] = child
        return child

    def _make_child(self):
        raise NotImplementedError

    def _label_dict(self, values):
        return dict(zip(self.labelnames, values))

    def samples(self):
        """Yield ``(labels_dict, sample)`` pairs for every series."""
        if self.labelnames:
            for values in sorted(self._children):
                yield self._label_dict(values), self._children[values]
        else:
            yield {}, self

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)


class Counter(_Metric):
    """A monotonically increasing value (counts, accumulated seconds)."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self):
        return Counter(self.name, self.help)

    def inc(self, amount=1):
        if self.labelnames:
            raise MetricError("use %s.labels(...).inc()" % self.name)
        if amount < 0:
            raise MetricError("counters only go up (%s)" % self.name)
        self._value += amount

    @property
    def value(self):
        return self._value


class Gauge(_Metric):
    """A value that can go up and down (sizes, in-flight work)."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self):
        return Gauge(self.name, self.help)

    def set(self, value):
        if self.labelnames:
            raise MetricError("use %s.labels(...).set()" % self.name)
        self._value = float(value)

    def inc(self, amount=1):
        if self.labelnames:
            raise MetricError("use %s.labels(...).inc()" % self.name)
        self._value += amount

    @property
    def value(self):
        return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram with cumulative bucket counts.

    Buckets are declared once at creation (upper bounds, sorted ascending);
    an implicit ``+Inf`` bucket equals the total observation count.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise MetricError("histogram %s needs at least one bucket" % name)
        self._bucket_counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0

    def _make_child(self):
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value):
        if self.labelnames:
            raise MetricError("use %s.labels(...).observe()" % self.name)
        value = float(value)
        self._count += 1
        self._sum += value
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                self._bucket_counts[position] += 1

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    def bucket_counts(self):
        """Cumulative ``{upper_bound: count}`` including ``+Inf``."""
        counts = dict(zip(self.buckets, self._bucket_counts))
        counts[float("inf")] = self._count
        return counts


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self):
        self._metrics = {}

    # -- registration --------------------------------------------------------

    def register(self, metric):
        existing = self._metrics.get(metric.name)
        if existing is not None and existing is not metric:
            raise MetricError("metric %r already registered" % metric.name)
        self._metrics[metric.name] = metric
        return metric

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise MetricError(
                    "%r is a %s, not a %s" % (name, metric.kind, cls.kind)
                )
            if tuple(labelnames) != metric.labelnames:
                raise MetricError(
                    "%r re-declared with labels %r (was %r)"
                    % (name, tuple(labelnames), metric.labelnames)
                )
            return metric
        return self.register(cls(name, help, labelnames, **kwargs))

    def counter(self, name, help="", labelnames=()):
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(),
                  buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name):
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def __iter__(self):
        for name in self.names():
            yield self._metrics[name]

    def __len__(self):
        return len(self._metrics)

    def reset(self):
        self._metrics = {}

    # -- value access --------------------------------------------------------

    def value(self, name, **labels):
        """Convenience: current value of a counter/gauge series (0 if absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if labels:
            key = tuple(str(labels[n]) for n in metric.labelnames)
            child = metric._children.get(key)
            return child.value if child is not None else 0
        return metric.value

    def label_values(self, name):
        """``{labels_tuple: value}`` for every series of a labelled metric."""
        metric = self._metrics.get(name)
        if metric is None:
            return {}
        return {
            values: child.value
            for values, child in sorted(metric._children.items())
        }

    # -- JSON exporter -------------------------------------------------------

    def as_dict(self):
        """A JSON-able snapshot of every metric and series."""
        out = []
        for metric in self:
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "samples": [],
            }
            if metric.kind == "histogram":
                entry["buckets"] = list(metric.buckets)
            for labels, sample in metric.samples():
                if metric.kind == "histogram":
                    entry["samples"].append({
                        "labels": labels,
                        "count": sample._count,
                        "sum": sample._sum,
                        "bucket_counts": list(sample._bucket_counts),
                    })
                else:
                    entry["samples"].append({
                        "labels": labels,
                        "value": sample._value,
                    })
            out.append(entry)
        return {"metrics": out}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a registry from :meth:`as_dict` output (JSON round-trip)."""
        registry = cls()
        for entry in data["metrics"]:
            kind = _KINDS[entry["kind"]]
            kwargs = {}
            if entry["kind"] == "histogram":
                kwargs["buckets"] = entry["buckets"]
            metric = registry.register(
                kind(entry["name"], entry.get("help", ""),
                     entry.get("labelnames", ()), **kwargs)
            )
            for sample in entry["samples"]:
                labels = sample.get("labels") or {}
                target = metric.labels(**labels) if labels else metric
                if entry["kind"] == "histogram":
                    target._count = sample["count"]
                    target._sum = sample["sum"]
                    target._bucket_counts = list(sample["bucket_counts"])
                else:
                    target._value = sample["value"]
        return registry

#: The process-global default registry (instrumentation falls back to it).
REGISTRY = MetricsRegistry()
