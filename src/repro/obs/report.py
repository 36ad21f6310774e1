"""Run reports: a pipeline-health summary rendered as markdown.

:func:`render_run_report` turns one study's :class:`~repro.obs.Obs`
bundle into the report the benchmarks print next to their
paper-vs-measured blocks: throughput, one table per subsystem that ran
(declared as rows in :data:`SECTIONS`), the drop taxonomy, and
per-stage time shares. Tables go through :mod:`repro.reporting` so the
output matches every other artifact the repo renders.
"""

from repro.obs import perf
from repro.reporting import Table
from repro.reporting.markdown import table_to_markdown

#: Stage timing metrics fed automatically by :class:`repro.obs.Obs`.
STAGE_SECONDS_METRIC = "repro_stage_seconds_total"
STAGE_CALLS_METRIC = "repro_stage_calls_total"
STAGE_ERRORS_METRIC = "repro_stage_errors_total"

#: Static-pipeline funnel metrics.
APPS_LISTED_METRIC = "repro_pipeline_apps_listed_total"
APPS_ANALYZED_METRIC = "repro_pipeline_apps_analyzed_total"
DROPS_METRIC = "repro_pipeline_drops_total"

#: Parallel-execution metrics (repro.exec), fed by the sharded pipeline.
EXEC_BACKEND_METRIC = "repro_exec_backend_info"
EXEC_WORKERS_METRIC = "repro_exec_workers"
EXEC_CHUNK_SIZE_METRIC = "repro_exec_chunk_size"
EXEC_TASKS_METRIC = "repro_exec_tasks_total"
EXEC_QUEUE_DEPTH_METRIC = "repro_exec_queue_depth_peak"
EXEC_WORKER_BUSY_METRIC = "repro_exec_worker_busy_seconds_total"
EXEC_CRITICAL_PATH_METRIC = "repro_exec_critical_path_seconds"
EXEC_CACHE_HITS_METRIC = "repro_exec_cache_hits_total"
EXEC_CACHE_MISSES_METRIC = "repro_exec_cache_misses_total"
EXEC_CACHE_EVICTIONS_METRIC = "repro_exec_cache_evictions_total"

#: Streaming-scheduler metrics (repro.exec.stream): simulated
#: work-steal events, chunks re-run after worker death, and tasks
#: quarantined into the drop taxonomy once the retry budget ran out.
EXEC_STEALS_METRIC = "repro_exec_steals_total"
EXEC_CHUNKS_REPAIRED_METRIC = "repro_exec_chunks_repaired_total"
EXEC_TASKS_QUARANTINED_METRIC = "repro_exec_tasks_quarantined_total"

#: Class-level content-addressed cache metrics (repro.exec two-tier
#: store), accounted deterministically by replaying per-APK digest
#: streams in selection order — never from worker-local hit counts.
EXEC_CLASS_CACHE_HITS_METRIC = "repro_exec_class_cache_hits_total"
EXEC_CLASS_CACHE_MISSES_METRIC = "repro_exec_class_cache_misses_total"
EXEC_CLASS_BYTES_DEDUPED_METRIC = "repro_exec_class_bytes_deduped_total"
EXEC_CLASS_TIME_SAVED_METRIC = "repro_exec_class_time_saved_seconds_total"

#: Dynamic-pipeline crawl metrics (repro.dynamic.crawler).
CRAWL_VISITS_METRIC = "repro_crawl_visits_total"
CRAWL_NETLOG_EVENTS_METRIC = "repro_crawl_netlog_events_total"
CRAWL_VISIT_ENDPOINTS_METRIC = "repro_crawl_visit_endpoints"

#: Compiled-script cache metrics (repro.web.jsengine), accounted by the
#: crawler's deterministic selection-order replay of per-visit
#: ``(digest, parse cost)`` streams — recorded whether the cache is
#: enabled or not, so the exported registry is identical either way.
SCRIPT_CACHE_HITS_METRIC = "repro_script_cache_hits_total"
SCRIPT_CACHE_MISSES_METRIC = "repro_script_cache_misses_total"
SCRIPT_CACHE_TIME_SAVED_METRIC = "repro_script_cache_time_saved_seconds_total"

#: Injection-impact census metrics (repro.impact), recorded in
#: selection order during the merge so they are byte-identical at any
#: worker count, backend, and streaming setting.
IMPACT_APPS_METRIC = "repro_impact_apps_total"
IMPACT_BRIDGES_METRIC = "repro_impact_bridges_total"
IMPACT_FINDINGS_METRIC = "repro_impact_findings_total"
IMPACT_FLOWS_METRIC = "repro_impact_taint_flows_total"
IMPACT_CLEARTEXT_METRIC = "repro_impact_cleartext_visits_total"

#: Static endpoint census metrics (repro.endpoints), recorded in
#: selection order during the merge (same determinism contract as the
#: impact census); the summary-cache counters come from the
#: selection-order digest replay, never from worker-local counts.
ENDPOINTS_APPS_METRIC = "repro_endpoints_apps_total"
ENDPOINTS_FOUND_METRIC = "repro_endpoints_found_total"
ENDPOINTS_CLEARTEXT_METRIC = "repro_endpoints_cleartext_total"
ENDPOINTS_CREDENTIALS_METRIC = "repro_endpoints_credentials_total"
ENDPOINTS_SUMMARY_CACHE_HITS_METRIC = "repro_endpoints_summary_hits_total"
ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC = "repro_endpoints_summary_misses_total"
ENDPOINTS_SUMMARY_TIME_SAVED_METRIC = (
    "repro_endpoints_summary_time_saved_seconds_total"
)
ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC = (
    "repro_endpoints_summary_bytes_deduped_total"
)

#: Longitudinal engine metrics (repro.longitudinal), fed per snapshot run.
LONGITUDINAL_APPS_METRIC = "repro_longitudinal_apps_total"
LONGITUDINAL_DELTA_METRIC = "repro_longitudinal_delta_apps_total"
LONGITUDINAL_RUNS_METRIC = "repro_longitudinal_runs_total"
LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC = (
    "repro_longitudinal_checkpoint_flushes_total"
)


#: The per-subsystem sections of a run report, in render order:
#: ``(title, gate metric, rows)``. A section renders when its gate
#: metric has a sample (it is registered and, if labelled, has a
#: series). Each row is ``(kind, label, metric)`` and renders per kind:
#:
#: - ``"int"`` / ``"secs"``: the metric's value, summed over its series,
#:   as an integer or as ``%.3f`` clock seconds, when it is registered;
#: - ``"each"``: one integer row per series, labelled ``label % value``;
#: - ``"total"`` / ``"count"`` / ``"join"``: the sum, the number or the
#:   ``/``-joined label values of a labelled metric's series, when it
#:   has any;
#: - ``"rate"``: ``a / (a + b)`` as a percentage, for ``metric = (a, b)``,
#:   when ``a + b`` is nonzero;
#: - ``"speedup"``: ``a / b`` as ``%.2fx``, for ``metric = (a, b)``, when
#:   ``b`` is nonzero;
#: - ``"except"``: the percentage of a labelled metric's total outside
#:   one series, for ``metric = (name, label value)``.
#:
#: A new subsystem adds a section here, not a rendering function.
SECTIONS = (
    ("Execution", EXEC_WORKERS_METRIC, (
        ("join", "backend", EXEC_BACKEND_METRIC),
        ("int", "workers", EXEC_WORKERS_METRIC),
        ("int", "chunk size", EXEC_CHUNK_SIZE_METRIC),
        ("each", "tasks %s", EXEC_TASKS_METRIC),
        ("int", "cache hits", EXEC_CACHE_HITS_METRIC),
        ("int", "cache misses", EXEC_CACHE_MISSES_METRIC),
        ("int", "class-cache hits", EXEC_CLASS_CACHE_HITS_METRIC),
        ("int", "class-cache misses", EXEC_CLASS_CACHE_MISSES_METRIC),
        ("rate", "class-cache hit rate",
         (EXEC_CLASS_CACHE_HITS_METRIC, EXEC_CLASS_CACHE_MISSES_METRIC)),
        ("int", "class bytes deduplicated", EXEC_CLASS_BYTES_DEDUPED_METRIC),
        ("secs", "class time saved (clock s)", EXEC_CLASS_TIME_SAVED_METRIC),
        ("each", "%s-cache evictions", EXEC_CACHE_EVICTIONS_METRIC),
        ("int", "queue depth peak", EXEC_QUEUE_DEPTH_METRIC),
        ("int", "work steals", EXEC_STEALS_METRIC),
        ("int", "chunks repaired", EXEC_CHUNKS_REPAIRED_METRIC),
        ("int", "tasks quarantined", EXEC_TASKS_QUARANTINED_METRIC),
        ("secs", "worker busy (clock s)", EXEC_WORKER_BUSY_METRIC),
        ("secs", "critical path (clock s)", EXEC_CRITICAL_PATH_METRIC),
        ("speedup", "parallel speedup",
         (EXEC_WORKER_BUSY_METRIC, EXEC_CRITICAL_PATH_METRIC)),
    )),
    ("Dynamic execution", CRAWL_VISITS_METRIC, (
        ("total", "visits", CRAWL_VISITS_METRIC),
        ("count", "apps crawled", CRAWL_VISITS_METRIC),
        ("total", "netlog events", CRAWL_NETLOG_EVENTS_METRIC),
        ("int", "script-cache hits", SCRIPT_CACHE_HITS_METRIC),
        ("int", "script-cache misses", SCRIPT_CACHE_MISSES_METRIC),
        ("rate", "script-cache hit rate",
         (SCRIPT_CACHE_HITS_METRIC, SCRIPT_CACHE_MISSES_METRIC)),
        ("secs", "script parse time saved (clock s)",
         SCRIPT_CACHE_TIME_SAVED_METRIC),
    )),
    ("Injection impact", IMPACT_APPS_METRIC, (
        ("total", "apps probed", IMPACT_APPS_METRIC),
        ("each", "apps %s", IMPACT_APPS_METRIC),
        ("int", "bridges probed", IMPACT_BRIDGES_METRIC),
        ("each", "findings %s", IMPACT_FINDINGS_METRIC),
        ("int", "taint flows observed", IMPACT_FLOWS_METRIC),
        ("int", "cleartext visits", IMPACT_CLEARTEXT_METRIC),
    )),
    ("Static endpoints", ENDPOINTS_APPS_METRIC, (
        ("int", "apps reconstructed", ENDPOINTS_APPS_METRIC),
        ("each", "endpoints %s", ENDPOINTS_FOUND_METRIC),
        ("int", "cleartext endpoints", ENDPOINTS_CLEARTEXT_METRIC),
        ("int", "credentialed endpoints", ENDPOINTS_CREDENTIALS_METRIC),
        ("int", "summary cache hits", ENDPOINTS_SUMMARY_CACHE_HITS_METRIC),
        ("int", "summary cache misses",
         ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC),
        ("rate", "summary hit rate",
         (ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
          ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC)),
        ("secs", "summary time saved (clock s)",
         ENDPOINTS_SUMMARY_TIME_SAVED_METRIC),
        ("int", "summary bytes deduplicated",
         ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC),
    )),
    ("Longitudinal", LONGITUDINAL_APPS_METRIC, (
        ("each", "runs %s", LONGITUDINAL_RUNS_METRIC),
        ("each", "apps %s", LONGITUDINAL_APPS_METRIC),
        ("except", "work avoided", (LONGITUDINAL_APPS_METRIC, "fresh")),
        ("each", "index delta %s", LONGITUDINAL_DELTA_METRIC),
        ("int", "checkpoint flushes", LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC),
    )),
)


def elapsed_for(tracer, root_span):
    """Total duration of every span named ``root_span`` in the forest."""
    return sum(
        span.duration for span in tracer.iter_spans()
        if span.name == root_span
    )


def render_run_report(obs, title, items_label="apps", items_count=0,
                      root_span="run", drop_metric=DROPS_METRIC):
    """Render the throughput / drops / stage-share report as markdown.

    Durations are in the bundle's clock units — real seconds when a real
    clock was injected, deterministic ticks otherwise (the report labels
    them "clock s" either way; see DESIGN.md §Observability).
    """
    tables = [_throughput_table(obs, items_label, items_count, root_span)]
    for section in SECTIONS:
        tables.append(_section_table(obs.registry, *section))
    tables.append(_drop_table(obs, drop_metric))
    tables.append(_stage_table(obs, elapsed_for(obs.tracer, root_span)))
    tables.append(_profile_table(obs))
    rendered = "\n\n".join(table_to_markdown(table) for table in tables
                            if table is not None)
    return "**%s**\n\n%s" % (title, rendered)


def _throughput_table(obs, items_label, items_count, root_span):
    elapsed = elapsed_for(obs.tracer, root_span)
    rate = items_count / elapsed if elapsed else 0.0
    table = Table(["metric", "value"], title="Throughput")
    table.add_row("%s processed" % items_label, items_count)
    table.add_row("elapsed (clock s)", "%.3f" % elapsed)
    table.add_row("%s/sec" % items_label, "%.1f" % rate)
    return table


def _total(registry, name):
    """A metric's value summed over its series, or None if unregistered."""
    metric = registry.get(name)
    if metric is None:
        return None
    if metric.labelnames:
        return sum(registry.label_values(name).values())
    return registry.value(name)


def _section_table(registry, title, gate, rows):
    """One :data:`SECTIONS` entry as a table, or None when not sampled."""
    metric = registry.get(gate)
    if metric is None or (metric.labelnames
                          and not registry.label_values(gate)):
        return None
    table = Table(["metric", "value"], title=title)
    for kind, label, name in rows:
        for cells in _row_cells(registry, kind, label, name):
            table.add_row(*cells)
    return table


def _row_cells(registry, kind, label, name):
    """The ``(label, value)`` rows one section row renders."""
    if kind == "each":
        return [(label % labels[0], int(count))
                for labels, count in registry.label_values(name).items()]
    if kind in ("total", "count", "join"):
        series = registry.label_values(name)
        if not series:
            return []
        if kind == "total":
            return [(label, int(sum(series.values())))]
        if kind == "count":
            return [(label, len(series))]
        return [(label, "/".join(labels[0] for labels in series))]
    if kind == "except":
        name, excluded = name
        series = registry.label_values(name)
        total = sum(series.values())
        if not total:
            return []
        kept = total - series.get((excluded,), 0)
        return [(label, "%.1f%%" % (100.0 * kept / total))]
    if kind == "rate":
        hits, misses = (_total(registry, metric) or 0 for metric in name)
        if not hits + misses:
            return []
        return [(label, "%.1f%%" % (100.0 * hits / (hits + misses)))]
    if kind == "speedup":
        work, span = (_total(registry, metric) or 0 for metric in name)
        if not span:
            return []
        return [(label, "%.2fx" % (work / span))]
    value = _total(registry, name)
    if value is None:
        return []
    return [(label, int(value) if kind == "int" else "%.3f" % value)]


def _drop_table(obs, drop_metric):
    drops = obs.registry.label_values(drop_metric)
    if not drops:
        return None
    table = Table(["drop reason", "count"], title="Drop taxonomy")
    ordered = sorted(drops.items(), key=lambda item: (-item[1], item[0]))
    for labels, count in ordered:
        table.add_row(labels[0], int(count))
    table.add_row("total", int(sum(drops.values())))
    return table


def _profile_table(obs):
    """Critical-path profile of the run's span forest.

    Unlike the stage-share table (built from counters, where nested
    spans double-count their children), self times here exclude child
    spans, so the column is a true cost breakdown; the critical-path
    share says how much of the run's longest dependency chain each stage
    owns — the stages worth optimizing first.
    """
    roots = list(obs.tracer.roots)
    if not roots:
        return None
    prof = perf.profile(roots)
    total_self = sum(stage.self_time for stage in prof.stages.values())
    table = Table(
        ["stage", "self clock s", "self %", "critical path %", "calls"],
        title="Profile (self time excludes child spans; critical path "
              "%.3f clock s)" % prof.critical_length,
    )
    for stage in prof.ordered():
        table.add_row(
            stage.name,
            "%.3f" % stage.self_time,
            "%.1f" % (100.0 * stage.self_time / total_self
                      if total_self else 0.0),
            "%.1f" % (100.0 * prof.path_share(stage.name)),
            stage.calls,
        )
    return table


def _stage_table(obs, elapsed):
    seconds = obs.registry.label_values(STAGE_SECONDS_METRIC)
    if not seconds:
        return None
    calls = obs.registry.label_values(STAGE_CALLS_METRIC)
    # Shares are relative to the root span's elapsed time; nested spans
    # overlap their parents, so columns intentionally do not sum to 100.
    total = elapsed or sum(seconds.values()) or 1.0
    table = Table(["stage", "clock s", "share %", "calls"],
                  title="Stage time shares (of root elapsed; spans nest)")
    ordered = sorted(seconds.items(), key=lambda item: (-item[1], item[0]))
    for labels, value in ordered:
        table.add_row(
            labels[0],
            "%.3f" % value,
            "%.1f" % (100.0 * value / total),
            int(calls.get(labels, 0)),
        )
    return table
