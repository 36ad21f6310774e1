"""Tests for span tracing: nesting, errors, export, clock injection."""

import pytest

from repro.obs import Obs, bind_context
from repro.obs.metrics import TickClock
from repro.obs.tracing import (
    Tracer,
    current_tracer,
    default_tracer,
    trace_span,
    use_tracer,
)


class TestNesting:
    def test_children_attach_to_parent(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("download"):
                pass
            with tracer.span("decompile"):
                pass
        assert len(tracer.roots) == 1
        run = tracer.roots[0]
        assert [child.name for child in run.children] == [
            "download", "decompile"
        ]

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_durations_from_injected_clock(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        # outer: start=0, inner: start=1 end=2, outer: end=3.
        assert inner.duration == 1.0
        assert outer.duration == 3.0


class TestErrorStatus:
    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = tracer.roots[0]
        assert span.status == "error"
        assert "ValueError" in span.error
        assert span.end is not None


class TestExport:
    def test_json_trace_tree(self):
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("visit", app="Pinterest"):
            with tracer.span("fetch") as fetch:
                fetch.events.append({"name": "REQUEST_ALIVE", "time": 0.0,
                                     "attributes": {"url": "https://a.com/"}})
        tree = tracer.to_dict()
        (visit,) = tree["spans"]
        assert visit["name"] == "visit"
        assert visit["attributes"] == {"app": "Pinterest"}
        (fetch,) = visit["children"]
        assert fetch["events"][0]["name"] == "REQUEST_ALIVE"
        assert fetch["events"][0]["attributes"]["url"] == "https://a.com/"
        assert visit["duration"] == visit["end"] - visit["start"]

    def test_span_dict_roundtrip(self):
        # The exec layer ships worker span trees between processes as
        # dicts; a rebuilt tree must match the original export.
        from repro.obs.tracing import Span

        tracer = Tracer(clock=TickClock(step=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("analyze_app", package="com.x"):
                with tracer.span("decompile") as decompile:
                    decompile.events.append({"name": "classes_loaded",
                                             "time": None,
                                             "attributes": {"count": 12}})
                raise RuntimeError("broken dex")
        exported = tracer.roots[0].to_dict()
        rebuilt = Span.from_dict(exported)
        assert rebuilt.to_dict() == exported
        assert rebuilt.name == "analyze_app"
        assert rebuilt.status == "error"
        assert rebuilt.children[0].events[0]["name"] == "classes_loaded"
        assert rebuilt.duration == tracer.roots[0].duration

    def test_find_and_stage_totals(self):
        obs = Obs(clock=TickClock(step=1.0))
        with obs.span("run"):
            with obs.span("download"):
                pass
            with obs.span("download"):
                pass
        assert obs.tracer.find("download") is not None
        # Stage totals accumulate per span name in the stage counter.
        assert obs.registry.value("repro_stage_seconds_total",
                                  stage="download") == 2.0
        assert obs.registry.value("repro_stage_calls_total",
                                  stage="download") == 2


class TestActiveTracer:
    def test_trace_span_targets_bound_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with trace_span("scoped"):
                pass
        assert current_tracer() is default_tracer()
        assert tracer.find("scoped") is not None

    def test_context_fields_become_span_attributes(self):
        tracer = Tracer()
        with use_tracer(tracer), bind_context(package="com.app"):
            with trace_span("decompile", classes=3):
                pass
        span = tracer.find("decompile")
        assert span.attributes == {"package": "com.app", "classes": 3}


class TestObsBundle:
    def test_span_end_feeds_stage_metrics(self):
        obs = Obs(clock=TickClock(step=1.0))
        with obs.span("run"):
            with obs.span("download"):
                pass
        assert obs.registry.value("repro_stage_calls_total",
                                  stage="download") == 1
        assert obs.registry.value("repro_stage_seconds_total",
                                  stage="download") == 1.0
        assert obs.registry.value("repro_stage_seconds_total",
                                  stage="run") == 3.0

    def test_error_spans_counted(self):
        obs = Obs()
        with pytest.raises(RuntimeError):
            with obs.span("explode"):
                raise RuntimeError("x")
        assert obs.registry.value("repro_stage_errors_total",
                                  stage="explode") == 1


class TestOpenSpanExport:
    def test_open_span_exports_with_null_end(self):
        # Live progress snapshots export the trace while spans are still
        # running; an open span must say so instead of faking an end.
        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("run"):
            with tracer.span("analyze_app"):
                exported = tracer.to_dict()
        (run,) = exported["spans"]
        assert run["end"] is None
        assert run["duration"] is None
        assert run["status"] == "open"
        (analyze,) = run["children"]
        assert analyze["end"] is None
        assert analyze["status"] == "open"

    def test_open_span_dict_roundtrip(self):
        from repro.obs.tracing import Span

        tracer = Tracer(clock=TickClock(step=1.0))
        with tracer.span("run"):
            exported = tracer.roots[0].to_dict()
        rebuilt = Span.from_dict(exported)
        assert rebuilt.to_dict() == exported
        assert rebuilt.end is None
        assert rebuilt.duration == 0.0  # still-open spans measure as zero

    def test_tracer_round_trip_is_lossless(self):
        # Seeded random forests with attributes, events, error spans and
        # a still-open tail span: from_dict(to_dict()) must be identity.
        import random

        for seed in range(5):
            rng = random.Random(seed)
            tracer = Tracer(clock=TickClock(step=0.5))

            def build(depth):
                for _ in range(rng.randint(1, 3)):
                    attrs = {}
                    if rng.random() < 0.5:
                        attrs["worker"] = rng.randint(0, 3)
                    try:
                        with tracer.span("s%d" % rng.randint(0, 4),
                                         **attrs) as span:
                            if rng.random() < 0.4:
                                span.events.append({
                                    "name": "evt", "time": None,
                                    "attributes": {"value": rng.random()},
                                })
                            if depth < 2 and rng.random() < 0.6:
                                build(depth + 1)
                            if rng.random() < 0.2:
                                raise RuntimeError("boom")
                    except RuntimeError:
                        pass

            build(0)
            with tracer.span("open_tail"):
                exported = tracer.to_dict()
            rebuilt = Tracer.from_dict(exported)
            assert rebuilt.to_dict() == exported
