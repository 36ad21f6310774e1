"""Lightweight span tracing for the study pipelines.

A :class:`Span` is one timed operation (``decompile``, ``download``, a
site visit); spans nest, carry attributes and point-in-time events, and
record error status when the traced block raises. :class:`Tracer` holds
the active span stack and the finished root spans, exportable as a JSON
trace tree via :meth:`Tracer.to_dict`.

Durations come from an injectable clock; the default is a deterministic
:class:`~repro.obs.metrics.TickClock`, so traces — like metrics — are
reproducible unless a real clock (``time.perf_counter``) is opted into.

The module-level :func:`trace_span` context manager targets the *active*
tracer, bound per-context with :func:`use_tracer` (a contextvar), falling
back to a process-global default. Instrumented library code uses
``trace_span(...)`` and therefore reports to whichever tracer the running
study installed.
"""

import contextlib
import contextvars

from repro.obs.context import current_context
from repro.obs.metrics import TickClock


class Span:
    """One node of a trace tree."""

    __slots__ = ("name", "attributes", "start", "end", "status", "error",
                 "children", "events")

    OK = "ok"
    ERROR = "error"
    #: Export-only status for spans still open at export time.
    OPEN = "open"

    def __init__(self, name, attributes=None, start=0.0):
        self.name = name
        self.attributes = dict(attributes or {})
        self.start = start
        self.end = None
        self.status = Span.OK
        self.error = None
        self.children = []
        #: Point-in-time events as ``{"name", "time", "attributes"}``
        #: dicts: a list, or an immutable block that renders them on
        #: iteration (a crawl visit's
        #: :class:`~repro.netstack.netlog.NetLogBlock`).
        self.events = []

    @property
    def duration(self):
        """Elapsed clock units (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key, value):
        self.attributes[key] = value

    def record_error(self, exc):
        self.status = Span.ERROR
        self.error = "%s: %s" % (type(exc).__name__, exc)

    def to_dict(self):
        # A still-open span has no defensible duration: exporting 0.0
        # would claim the operation was free. Open spans are marked
        # explicitly (end/duration null, status "open") so consumers can
        # tell "unfinished" from "instant".
        if self.end is None:
            out = {
                "name": self.name,
                "start": self.start,
                "end": None,
                "duration": None,
                "status": Span.OPEN,
            }
        else:
            out = {
                "name": self.name,
                "start": self.start,
                "end": self.end,
                "duration": self.duration,
                "status": self.status,
            }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.error is not None:
            out["error"] = self.error
        if self.events:
            out["events"] = [dict(event) for event in self.events]
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data):
        """Rebuild a span tree exported by :meth:`to_dict`.

        Persisted traces come back through this
        (:meth:`~repro.results.store.ResultsStore.load_spans`); a
        sharded run adopts its tasks' live span trees instead.
        """
        span = cls(data["name"], data.get("attributes"),
                   start=data.get("start", 0.0))
        span.end = data.get("end")
        status = data.get("status", cls.OK)
        if status == cls.OPEN:
            # "open" is an export artifact, not a live status: the
            # rebuilt span keeps end=None (so it re-exports as open) and
            # derives its live status from whether an error was recorded.
            status = cls.ERROR if data.get("error") is not None else cls.OK
        span.status = status
        span.error = data.get("error")
        span.events = [
            {
                "name": event["name"],
                "time": event.get("time"),
                "attributes": dict(event.get("attributes", {})),
            }
            for event in data.get("events", ())
        ]
        span.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return span

    def iter_spans(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name):
        """First descendant (or self) with the given span name, or None."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def __repr__(self):
        return "Span(%s, %.3f%s, %d children)" % (
            self.name, self.duration,
            "" if self.status == Span.OK else " " + self.status,
            len(self.children),
        )


class Tracer:
    """Records a forest of spans with an injectable clock."""

    def __init__(self, clock=None, on_span_end=None):
        self.clock = clock if clock is not None else TickClock()
        #: Optional callback fired with each finished span (the
        #: :class:`~repro.obs.Obs` bundle uses it to feed stage metrics).
        self.on_span_end = on_span_end
        self.roots = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attributes):
        """Open a span; nested calls attach children; errors are recorded."""
        merged = current_context()
        merged.update(attributes)
        span = Span(name, merged, start=self.clock())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.record_error(exc)
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            if self.on_span_end is not None:
                self.on_span_end(span)

    def current(self):
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def iter_spans(self):
        for root in self.roots:
            yield from root.iter_spans()

    def find(self, name):
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def to_dict(self):
        """The JSON trace tree (a forest of root spans).

        Spans still open at export time are marked ``status: "open"``
        with ``end``/``duration`` null — see :meth:`Span.to_dict`.
        """
        return {"spans": [root.to_dict() for root in self.roots]}

    @classmethod
    def from_dict(cls, data, clock=None):
        """Rebuild a tracer from :meth:`to_dict` output (JSON round-trip).

        The rebuilt tracer is read-only in spirit — its roots replay the
        exported forest (including open spans) losslessly, so
        ``Tracer.from_dict(t.to_dict()).to_dict() == t.to_dict()``.
        """
        tracer = cls(clock=clock)
        tracer.roots = [Span.from_dict(span)
                        for span in data.get("spans", ())]
        return tracer

    def reset(self):
        self.roots = []
        self._stack = []

    def __repr__(self):
        return "Tracer(%d roots, depth=%d)" % (len(self.roots),
                                               len(self._stack))


_DEFAULT_TRACER = Tracer()

_ACTIVE_TRACER = contextvars.ContextVar("repro_active_tracer", default=None)


def default_tracer():
    return _DEFAULT_TRACER


def current_tracer():
    """The context-bound tracer, falling back to the process default."""
    tracer = _ACTIVE_TRACER.get()
    return tracer if tracer is not None else _DEFAULT_TRACER


@contextlib.contextmanager
def use_tracer(tracer):
    """Bind ``tracer`` as the active tracer for the enclosed block."""
    token = _ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER.reset(token)


def trace_span(name, **attributes):
    """Open a span on the active tracer: ``with trace_span("decompile", ...)``."""
    return current_tracer().span(name, **attributes)
