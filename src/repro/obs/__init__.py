"""repro.obs — observability for the study pipelines.

Three cooperating layers, all deterministic by default (see DESIGN.md
§Observability):

- **structured logging** (:mod:`repro.obs.logs`): a ``repro``-rooted
  logger hierarchy emitting ``event key=value`` records, with run/app
  context (package, snapshot date, stage) bound via a contextvar
  (:mod:`repro.obs.context`). The library never prints on its own;
  :func:`configure` opts a study in, honoring ``REPRO_LOG_LEVEL``.
- **metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  fixed-bucket histograms in a :class:`MetricsRegistry` with
  ``Counter.labels(...)``-style children and a JSON exporter that
  round-trips.
- **span tracing** (:mod:`repro.obs.tracing`): ``trace_span("decompile",
  package=...)`` records nested spans with durations and error status,
  exportable as a JSON trace tree.

:class:`Obs` bundles one registry + tracer + clock for a single study
run; finished spans automatically feed the per-stage timing metrics every
run report is built from. A process-global default bundle backs
module-level instrumentation when no study installed its own.
"""

from repro.obs.context import bind_context, current_context
from repro.obs.logs import (
    LOG_LEVEL_ENV_VAR,
    StructuredLogger,
    configure,
    format_kv,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    TickClock,
)
from repro.obs.progress import (
    PROGRESS_ENV_VAR,
    ProgressReporter,
    progress_enabled,
)
from repro.obs.report import (
    APPS_ANALYZED_METRIC,
    APPS_LISTED_METRIC,
    CRAWL_NETLOG_EVENTS_METRIC,
    CRAWL_VISIT_ENDPOINTS_METRIC,
    CRAWL_VISITS_METRIC,
    DROPS_METRIC,
    EXEC_BACKEND_METRIC,
    EXEC_CACHE_EVICTIONS_METRIC,
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    EXEC_CHUNK_SIZE_METRIC,
    EXEC_CHUNKS_REPAIRED_METRIC,
    EXEC_CLASS_BYTES_DEDUPED_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CLASS_TIME_SAVED_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_QUEUE_DEPTH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_TASKS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    EXEC_WORKERS_METRIC,
    ENDPOINTS_APPS_METRIC,
    ENDPOINTS_CLEARTEXT_METRIC,
    ENDPOINTS_CREDENTIALS_METRIC,
    ENDPOINTS_FOUND_METRIC,
    ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC,
    ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
    ENDPOINTS_SUMMARY_TIME_SAVED_METRIC,
    IMPACT_APPS_METRIC,
    IMPACT_BRIDGES_METRIC,
    IMPACT_CLEARTEXT_METRIC,
    IMPACT_FINDINGS_METRIC,
    IMPACT_FLOWS_METRIC,
    LONGITUDINAL_APPS_METRIC,
    LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC,
    LONGITUDINAL_DELTA_METRIC,
    LONGITUDINAL_RUNS_METRIC,
    SCRIPT_CACHE_HITS_METRIC,
    SCRIPT_CACHE_MISSES_METRIC,
    SCRIPT_CACHE_TIME_SAVED_METRIC,
    STAGE_CALLS_METRIC,
    STAGE_ERRORS_METRIC,
    STAGE_SECONDS_METRIC,
    render_run_report,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    default_tracer,
    trace_span,
    use_tracer,
)


class Obs:
    """One study run's observability bundle: registry + tracer + clock.

    Every finished span feeds ``repro_stage_seconds_total{stage=<span
    name>}`` / ``repro_stage_calls_total`` (and ``..._errors_total`` on
    failure) in the bundle's registry, so stage time shares come for free
    wherever spans are opened. The default clock is a deterministic
    :class:`TickClock`; inject ``time.perf_counter`` for real timings.
    """

    def __init__(self, registry=None, tracer=None, clock=None):
        self.clock = clock if clock is not None else TickClock()
        self.registry = registry if registry is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer(clock=self.clock, on_span_end=self._on_span_end)
        elif tracer.on_span_end is None:
            tracer.on_span_end = self._on_span_end
        self.tracer = tracer

    # -- tracing -------------------------------------------------------------

    def span(self, name, **attributes):
        return self.tracer.span(name, **attributes)

    def activate(self):
        """Bind this bundle's tracer as the active one for a block."""
        return use_tracer(self.tracer)

    def _on_span_end(self, span):
        stage_seconds = self.registry.counter(
            STAGE_SECONDS_METRIC,
            "Total clock units spent inside spans, by span name.",
            ("stage",),
        )
        stage_calls = self.registry.counter(
            STAGE_CALLS_METRIC, "Finished spans, by span name.", ("stage",),
        )
        stage_seconds.labels(stage=span.name).inc(span.duration)
        stage_calls.labels(stage=span.name).inc()
        if span.status == Span.ERROR:
            self.registry.counter(
                STAGE_ERRORS_METRIC,
                "Spans that finished in error status, by span name.",
                ("stage",),
            ).labels(stage=span.name).inc()

    # -- metrics -------------------------------------------------------------

    def counter(self, name, help="", labelnames=()):
        return self.registry.counter(name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self.registry.gauge(name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=None):
        if buckets is None:
            return self.registry.histogram(name, help, labelnames)
        return self.registry.histogram(name, help, labelnames, buckets)

    def run_report(self, title, items_label="apps", items_count=0,
                   root_span="run"):
        return render_run_report(self, title, items_label=items_label,
                                 items_count=items_count,
                                 root_span=root_span)

    def __repr__(self):
        return "Obs(%d metrics, %d root spans)" % (
            len(self.registry), len(self.tracer.roots)
        )


#: Process-global default bundle: wires the default tracer to the default
#: registry so standalone (non-study) calls still produce stage metrics.
_DEFAULT_OBS = Obs(registry=REGISTRY, tracer=default_tracer())


def default_obs():
    return _DEFAULT_OBS


__all__ = [
    "APPS_ANALYZED_METRIC",
    "APPS_LISTED_METRIC",
    "CRAWL_NETLOG_EVENTS_METRIC",
    "CRAWL_VISIT_ENDPOINTS_METRIC",
    "CRAWL_VISITS_METRIC",
    "Counter",
    "DROPS_METRIC",
    "EXEC_BACKEND_METRIC",
    "EXEC_CACHE_EVICTIONS_METRIC",
    "EXEC_CACHE_HITS_METRIC",
    "EXEC_CACHE_MISSES_METRIC",
    "EXEC_CHUNK_SIZE_METRIC",
    "EXEC_CHUNKS_REPAIRED_METRIC",
    "EXEC_CLASS_BYTES_DEDUPED_METRIC",
    "EXEC_CLASS_CACHE_HITS_METRIC",
    "EXEC_CLASS_CACHE_MISSES_METRIC",
    "EXEC_CLASS_TIME_SAVED_METRIC",
    "LONGITUDINAL_APPS_METRIC",
    "LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC",
    "LONGITUDINAL_DELTA_METRIC",
    "LONGITUDINAL_RUNS_METRIC",
    "EXEC_CRITICAL_PATH_METRIC",
    "EXEC_QUEUE_DEPTH_METRIC",
    "EXEC_STEALS_METRIC",
    "EXEC_TASKS_METRIC",
    "EXEC_TASKS_QUARANTINED_METRIC",
    "EXEC_WORKER_BUSY_METRIC",
    "EXEC_WORKERS_METRIC",
    "ENDPOINTS_APPS_METRIC",
    "ENDPOINTS_CLEARTEXT_METRIC",
    "ENDPOINTS_CREDENTIALS_METRIC",
    "ENDPOINTS_FOUND_METRIC",
    "ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC",
    "ENDPOINTS_SUMMARY_CACHE_HITS_METRIC",
    "ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC",
    "ENDPOINTS_SUMMARY_TIME_SAVED_METRIC",
    "IMPACT_APPS_METRIC",
    "IMPACT_BRIDGES_METRIC",
    "IMPACT_CLEARTEXT_METRIC",
    "IMPACT_FINDINGS_METRIC",
    "IMPACT_FLOWS_METRIC",
    "Gauge",
    "Histogram",
    "LOG_LEVEL_ENV_VAR",
    "MetricsRegistry",
    "Obs",
    "PROGRESS_ENV_VAR",
    "ProgressReporter",
    "REGISTRY",
    "SCRIPT_CACHE_HITS_METRIC",
    "SCRIPT_CACHE_MISSES_METRIC",
    "SCRIPT_CACHE_TIME_SAVED_METRIC",
    "STAGE_CALLS_METRIC",
    "STAGE_ERRORS_METRIC",
    "STAGE_SECONDS_METRIC",
    "Span",
    "StructuredLogger",
    "TickClock",
    "Tracer",
    "bind_context",
    "configure",
    "current_context",
    "current_tracer",
    "default_obs",
    "default_tracer",
    "format_kv",
    "get_logger",
    "progress_enabled",
    "render_run_report",
    "trace_span",
    "use_tracer",
]
