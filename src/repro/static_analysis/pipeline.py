"""The Figure 1 static-analysis pipeline, end to end.

:func:`analyze_apk_bytes` performs steps (3)-(5) for a single APK:
decompile, find WebView subclasses in parsed source, build the call graph,
traverse from all entry points, and record every WebView/CT call with
reachability and deep-link-exclusion flags.

:class:`StaticAnalysisPipeline` performs steps (1)-(2) around it: list the
AndroZoo snapshot, fetch Play metadata, apply the 100K-downloads and
updated-after-2021 filters, download APKs, and aggregate a
:class:`~repro.static_analysis.results.StudyResult`.

Per-app analysis is sharded over the :mod:`repro.exec` streaming
scheduler — a process pool when ``max_workers > 1``, in-process
otherwise. Per-app failures (a broken APK, a failed download, any
:class:`ReproError` from analysis) are isolated into the drop taxonomy
instead of aborting the run, results are aggregated in selection order
so same-seed studies are byte-identical at any worker count, and
outcomes are memoized in a two-tier :class:`~repro.exec.AnalysisCache`:
whole-APK outcomes keyed by ``(sha256, options)`` on top,
content-addressed per-class facts below.

The class tier is what makes corpus-scale analysis cheap: the paper's
SDK-concentration finding means the same class bytes recur across
thousands of APKs, so each app's analysis composes memoized per-class
facts (generated source, parsed ``extends`` entries, invoke summaries)
with app-local resolution (superclass chains, entry-point traversal).
Process-pool workers ship newly computed facts back with their results
so the corpus-level cache warms across chunks. Results are byte-identical
with the class cache on or off, at any worker count and backend — and
class-cache metrics are accounted by a deterministic selection-order
replay, never from scheduling-dependent worker-local counts.
"""

import datetime
import functools
import time

from repro.android import api
from repro.apk.container import read_apk
from repro.callgraph.builder import build_call_graph
from repro.callgraph.entrypoints import entry_point_methods
from repro.decompiler.jadx import Decompiler
from repro.dex.model import MethodRef
from repro.errors import ReproError, RepositoryError, error_slug
from repro.exec import (
    AnalysisCache,
    BACKEND_PROCESS,
    ClassFactsCache,
    ExecConfig,
    StreamPlan,
    TaskOutcome,
    chain_results,
)
from repro.obs import (
    APPS_ANALYZED_METRIC,
    APPS_LISTED_METRIC,
    DROPS_METRIC,
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    EXEC_CLASS_BYTES_DEDUPED_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CLASS_TIME_SAVED_METRIC,
    TickClock,
    Tracer,
    bind_context,
    current_tracer,
    default_obs,
    get_logger,
    trace_span,
    use_tracer,
)
from repro.sdk.labeling import SdkLabeler
from repro.static_analysis.classfacts import FactsRecorder, facts_for_class
from repro.static_analysis.deeplinks import (
    deep_link_class_names,
    is_excluded_caller,
)
from repro.static_analysis.results import (
    AppAnalysis,
    OutcomeRecord,
    RecordedCall,
    StudyResult,
)
from repro.static_analysis.webview_usage import webview_subclasses_from_entries


class PipelineOptions:
    """Feature switches, used by the ablation benchmarks.

    All three default to the paper's methodology. Disabling
    ``entry_point_traversal`` treats every recorded call as reachable
    (naive whole-code scan); disabling ``deep_link_filter`` keeps
    first-party deep-link activities in the counts; disabling
    ``subclass_detection`` misses calls made through custom WebView
    subclasses.
    """

    def __init__(self, entry_point_traversal=True, deep_link_filter=True,
                 subclass_detection=True):
        self.entry_point_traversal = entry_point_traversal
        self.deep_link_filter = deep_link_filter
        self.subclass_detection = subclass_detection

    def cache_key(self):
        """Fingerprint for the analysis-result cache (:mod:`repro.exec`)."""
        return (self.entry_point_traversal, self.deep_link_filter,
                self.subclass_detection)


def _is_webview_call(ref, subclasses):
    """A tracked WebView method on the framework class or a subclass."""
    if ref.method_name not in api.WEBVIEW_TRACKED_METHODS:
        return False
    return ref.class_name == api.WEBVIEW_CLASS or ref.class_name in subclasses


def analyze_apk_bytes(data, options=None, decompiler=None, category=None,
                      installs=0, facts_cache=None, recorder=None):
    """Run the per-APK analysis (Figure 1 steps 3-5) on APK bytes.

    Raises :class:`~repro.errors.BrokenApkError` for unanalyzable APKs.

    The APK is parsed once; per-class work (decompile, parse, invoke
    summarization) flows through :func:`facts_for_class`, served from
    ``facts_cache`` by content digest when one is given. ``recorder``
    collects the app's ordered digest stream plus any newly computed
    facts, for worker ship-back and deterministic cache accounting.
    Results are byte-identical with or without a cache.
    """
    options = options or PipelineOptions()
    decompiler = decompiler or Decompiler()
    clock = current_tracer().clock

    with trace_span("decompile"):
        apk = read_apk(data)
        decompiler.apks_attempted += 1
        facts = [
            facts_for_class(dex_class, decompiler, cache=facts_cache,
                            recorder=recorder, clock=clock)
            for dex_class in apk.dex.classes
        ]
        decompiler.apks_succeeded += 1
        analysis = AppAnalysis(apk.package, category=category,
                               installs=installs)
        analysis.class_count = sum(
            1 for class_facts in facts if class_facts.source is not None
        )
        if options.subclass_detection:
            analysis.webview_subclasses = webview_subclasses_from_entries(
                [entry for class_facts in facts
                 for entry in class_facts.web_entries]
            )

    dex = apk.dex
    manifest = apk.manifest
    with trace_span("callgraph", package=apk.package):
        graph = build_call_graph(dex, method_summaries={
            class_facts.class_name: class_facts.method_summary
            for class_facts in facts
        })

    with trace_span("traverse", package=apk.package):
        reachable = None
        if options.entry_point_traversal:
            roots = [
                MethodRef(dex_class.name, method.name, method.descriptor)
                for dex_class, method in entry_point_methods(dex, manifest)
            ]
            reachable = graph.reachable_from(roots)

        excluded_names = (
            deep_link_class_names(manifest) if options.deep_link_filter
            else set()
        )

        for class_facts in facts:
            caller_excluded = is_excluded_caller(class_facts.class_name,
                                                 excluded_names)
            for method_name, descriptor, invokes in class_facts.method_summary:
                caller = MethodRef(class_facts.class_name, method_name,
                                   descriptor)
                caller_reachable = True
                if reachable is not None:
                    caller_reachable = caller in reachable
                for target in invokes:
                    ref = MethodRef(*target)
                    if _is_webview_call(ref, analysis.webview_subclasses):
                        analysis.record(
                            RecordedCall(
                                RecordedCall.WEBVIEW, ref.method_name,
                                class_facts.class_name, ref.class_name,
                                reachable=caller_reachable,
                                excluded=caller_excluded,
                            )
                        )
                    elif api.is_customtabs_init(ref):
                        analysis.record(
                            RecordedCall(
                                RecordedCall.CUSTOMTABS, ref.method_name,
                                class_facts.class_name, ref.class_name,
                                reachable=caller_reachable,
                                excluded=caller_excluded,
                            )
                        )
    return analysis


#: Drop-reason slugs for the metadata filters (steps 1-2). Pipeline-error
#: drops use the :func:`repro.errors.error_slug` taxonomy instead.
DROP_NOT_PROCESSED = "not_processed"
DROP_BELOW_MIN_INSTALLS = "below_min_installs"
DROP_UPDATED_BEFORE_CUTOFF = "updated_before_cutoff"


class AnalysisTask:
    """One unit of per-app work shipped to a worker."""

    __slots__ = ("position", "sha256", "package", "data", "category",
                 "installs")

    def __init__(self, position, sha256, package, data, category, installs):
        self.position = position
        self.sha256 = sha256
        self.package = package
        self.data = data
        self.category = category
        self.installs = installs


class AnalysisOutcome(TaskOutcome):
    """Per-app execution outcome, aggregated in selection order.

    On top of the shared :class:`~repro.exec.TaskOutcome` fields,
    ``analysis`` is the app's :class:`AppAnalysis` (failed ones
    included); ``class_digests`` is the app's ordered class-digest
    stream and ``new_facts`` the facts this task computed rather than
    reused — the worker ship-back that warms the corpus-level class
    cache and feeds its deterministic accounting.
    """

    __slots__ = ("sha256", "analysis", "class_digests", "new_facts")

    def __init__(self, position, sha256, package, analysis, error=None,
                 message=None):
        super().__init__(position, package, error, message)
        self.sha256 = sha256
        self.analysis = analysis
        self.class_digests = None
        self.new_facts = None


#: What the analysis cache stores for one (sha256, options) key — now the
#: shared record type persisted by the longitudinal RunStore as well.
_CachedEntry = OutcomeRecord


class _WorkerSettings:
    """Picklable knobs shipped to every worker invocation."""

    __slots__ = ("options", "real_clock", "class_cache")

    def __init__(self, options, real_clock=False, class_cache=True):
        self.options = options
        self.real_clock = real_clock
        self.class_cache = class_cache


def _execute_analysis(options, task, decompiler=None, facts_cache=None,
                      recorder=None):
    """Run one task with per-app fault isolation.

    Any :class:`ReproError` (broken APK, decompilation failure, ...)
    becomes a failed outcome carrying its drop slug; only non-library
    exceptions — genuine bugs — propagate and abort the run.
    """
    try:
        analysis = analyze_apk_bytes(
            task.data,
            options=options,
            decompiler=decompiler,
            category=task.category,
            installs=task.installs,
            facts_cache=facts_cache,
            recorder=recorder,
        )
    except ReproError as exc:
        analysis = AppAnalysis(task.package, category=task.category,
                               installs=task.installs)
        analysis.failed = True
        analysis.failure_reason = str(exc)
        outcome = AnalysisOutcome(task.position, task.sha256, task.package,
                                  analysis, error_slug(exc), str(exc))
    else:
        outcome = AnalysisOutcome(task.position, task.sha256, task.package,
                                  analysis)
    if recorder is not None:
        outcome.class_digests = recorder.digests
        outcome.new_facts = recorder.new
    return outcome


#: Process-local class-facts cache for pool workers. Workers fork with
#: it unset and die with the pool, so it deduplicates across the chunks
#: one worker processes within a single run — the parent merges each
#: task's shipped ``new_facts`` to cover everything else.
_WORKER_FACTS = None


def _worker_facts_cache():
    global _WORKER_FACTS
    if _WORKER_FACTS is None:
        _WORKER_FACTS = ClassFactsCache(max_entries=None, cache_dir=None)
    return _WORKER_FACTS


def _run_analysis_task(settings, task):
    """Process-pool entry point: analyze one app in a worker.

    The worker traces into its own tracer (a fresh deterministic
    TickClock unless the study injected a real clock) and exports the
    span tree in the outcome, so the parent can replay it and per-app
    stage timings survive the process boundary.
    """
    clock = time.perf_counter if settings.real_clock else TickClock()
    tracer = Tracer(clock=clock)
    facts_cache = _worker_facts_cache() if settings.class_cache else None
    recorder = FactsRecorder() if settings.class_cache else None
    with use_tracer(tracer), bind_context(package=task.package):
        with tracer.span("analyze_app", package=task.package) as root:
            outcome = _execute_analysis(settings.options, task,
                                        facts_cache=facts_cache,
                                        recorder=recorder)
    outcome.cost = root.duration
    outcome.spans = [root.to_dict()]
    return outcome


class StaticAnalysisPipeline:
    """The corpus-level study runner (Figure 1 steps 1-2 + aggregation)."""

    def __init__(self, corpus, options=None, labeler=None, obs=None,
                 exec_config=None, cache=None, snapshot_date=None,
                 checkpoint=None, progress_hook=None):
        self.corpus = corpus
        self.options = options or PipelineOptions()
        self.labeler = labeler or SdkLabeler(corpus.catalog)
        self.decompiler = Decompiler()
        self.obs = obs if obs is not None else default_obs()
        self.exec_config = (exec_config if exec_config is not None
                            else ExecConfig())
        # The AndroZoo snapshot this run lists; defaults to the corpus
        # config's date, overridden per run by the longitudinal engine.
        if snapshot_date is None:
            snapshot_date = corpus.config.snapshot_date
        elif isinstance(snapshot_date, str):
            snapshot_date = datetime.date.fromisoformat(snapshot_date)
        self.snapshot_date = snapshot_date
        #: Optional per-outcome callable (completion order), used by the
        #: longitudinal engine to persist checkpoints mid-run.
        self.checkpoint = checkpoint
        #: Optional per-outcome callable (completion order) streaming
        #: live progress, e.g. a :class:`repro.obs.ProgressReporter`.
        self.progress_hook = progress_hook
        if cache is None:
            cache = getattr(corpus, "analysis_cache", None)
        self.cache = cache if cache is not None else AnalysisCache()
        self.log = get_logger("static.pipeline")
        self._drops = self.obs.counter(
            DROPS_METRIC,
            "Apps dropped before successful analysis, by reason.",
            ("reason",),
        )
        self._listed = self.obs.counter(
            APPS_LISTED_METRIC,
            "Play-market apps listed in the AndroZoo snapshot.",
        )
        self._analyzed = self.obs.counter(
            APPS_ANALYZED_METRIC, "Apps successfully analyzed.",
        )
        self._cache_hits = self.obs.counter(
            EXEC_CACHE_HITS_METRIC,
            "Per-app analysis outcomes served from the result cache.",
        )
        self._cache_misses = self.obs.counter(
            EXEC_CACHE_MISSES_METRIC,
            "Per-app analysis outcomes that required real work.",
        )

    def _drop(self, reason, count=1):
        if count:
            self._drops.labels(reason=reason).inc(count)

    def select_apps(self):
        """Steps (1)-(2): snapshot listing + metadata filters.

        Returns (selected_rows, funnel_counts) where each selected row is
        an (IndexRow, AppListing) pair.
        """
        from repro.androzoo.repository import PLAY_MARKET
        from repro.errors import AppNotFoundError
        from repro.playstore.store import PlayScraperClient

        config = self.corpus.config
        with self.obs.span("list", snapshot=str(self.snapshot_date)):
            snapshot = self.corpus.repository.snapshot(self.snapshot_date)
            packages = snapshot.packages(market=PLAY_MARKET)
        self._listed.inc(len(packages))
        self.log.info("snapshot_listed", snapshot=str(self.snapshot_date),
                      packages=len(packages))
        scraper = PlayScraperClient(self.corpus.store)

        funnel = {
            "androzoo_play_apps": len(packages),
            "found_on_play": 0,
            "with_100k_downloads": 0,
            "updated_after_2021": 0,
        }
        selected = []
        with self.obs.span("filter"):
            for package in packages:
                listing = scraper.try_app_listing(package)
                if listing is None:
                    self._drop(error_slug(AppNotFoundError))
                    continue
                funnel["found_on_play"] += 1
                if listing.installs < config.min_installs:
                    self._drop(DROP_BELOW_MIN_INSTALLS)
                    continue
                funnel["with_100k_downloads"] += 1
                if listing.updated < config.update_cutoff:
                    self._drop(DROP_UPDATED_BEFORE_CUTOFF)
                    continue
                funnel["updated_after_2021"] += 1
                # Packages were listed from the Play market; restrict the
                # version pick the same way so a newer non-Play archive of
                # the same package can never be downloaded instead.
                row = snapshot.latest_version(package, market=PLAY_MARKET)
                if row is None:
                    self._drop(error_slug(RepositoryError))
                    continue
                selected.append((row, listing))
        self.log.info("funnel_selected", **funnel)
        return selected, funnel

    def run(self, max_apps=None, progress=None):
        """Run the full study; returns a :class:`StudyResult`.

        Aggregation, checkpointing and progress consume outcomes as they
        land (see :mod:`repro.exec.stream`); ``progress``, when given,
        is called with ``(done, selected)`` every 200 apps.
        """
        return self.stream_plan(max_apps=max_apps, progress=progress).run()

    def stream_plan(self, max_apps=None, progress=None):
        """Open a run and return its :class:`PipelineStreamPlan`.

        Selection and download happen now; the plan's ``stage`` waits
        for a :class:`~repro.exec.StreamScheduler` (possibly shared with
        other studies' stages) and ``finalize`` closes the run.
        """
        return PipelineStreamPlan(self, max_apps=max_apps, progress=progress)

    def _select_for_run(self, max_apps):
        """Steps (1)-(2) plus the funnel-annotated result shell."""
        selected, funnel = self.select_apps()
        if max_apps is not None and len(selected) > max_apps:
            self._drop(DROP_NOT_PROCESSED, len(selected) - max_apps)
            selected = selected[:max_apps]
        result = StudyResult(self.labeler)
        result.androzoo_play_apps = funnel["androzoo_play_apps"]
        result.found_on_play = funnel["found_on_play"]
        result.popular = funnel["with_100k_downloads"]
        result.selected = funnel["updated_after_2021"]
        return selected, result

    # -- sharded execution ---------------------------------------------------

    def _prepare(self, selected):
        """Cache/download short-circuits plus the worker task list.

        Returns ``(tasks, served)``: the :class:`AnalysisTask` list for
        the stage, and the outcomes of every short-circuited position
        (cache hits, download failures).
        """
        fingerprint = self.options.cache_key()
        tasks = []
        served = []
        for position, (row, listing) in enumerate(selected):
            entry = self.cache.get(row.sha256, fingerprint)
            if entry is not None:
                self._cache_hits.inc()
                outcome = AnalysisOutcome(position, row.sha256, row.package,
                                          entry.analysis, entry.error,
                                          entry.message)
                outcome.cached = True
                outcome.cacheable = False
                served.append(outcome)
                continue
            self._cache_misses.inc()
            with bind_context(package=row.package), \
                    self.obs.span("download", package=row.package):
                try:
                    data = self.corpus.repository.download(row.sha256)
                except RepositoryError as exc:
                    served.append(self._download_failure(
                        position, row, listing, exc
                    ))
                    continue
            tasks.append(AnalysisTask(position, row.sha256, row.package,
                                      data, listing.category,
                                      listing.installs))
        return tasks, served

    def _task_fn(self):
        """The per-task callable for this config's resolved backend."""
        settings = _WorkerSettings(
            self.options,
            real_clock=not isinstance(self.obs.clock, TickClock),
            class_cache=self.exec_config.class_cache,
        )
        if self.exec_config.resolved_backend == BACKEND_PROCESS:
            return functools.partial(_run_analysis_task, settings)
        return functools.partial(self._inline_task, settings)

    def _inline_task(self, settings, task):
        """In-process execution path: trace into the study tracer."""
        facts_cache = self.cache.classes if settings.class_cache else None
        recorder = FactsRecorder() if settings.class_cache else None
        with bind_context(package=task.package), \
                self.obs.span("analyze_app", package=task.package) as span:
            outcome = _execute_analysis(settings.options, task,
                                        decompiler=self.decompiler,
                                        facts_cache=facts_cache,
                                        recorder=recorder)
        outcome.cost = span.duration
        outcome.span = span
        return outcome

    def _download_failure(self, position, row, listing, exc):
        """Fault isolation for step (2b): a failed download is one drop."""
        analysis = AppAnalysis(row.package, category=listing.category,
                               installs=listing.installs)
        analysis.failed = True
        analysis.failure_reason = str(exc)
        outcome = AnalysisOutcome(position, row.sha256, row.package,
                                  analysis, error_slug(exc), str(exc))
        outcome.cacheable = False  # downloads are retried next run
        return outcome

    def _aggregate(self, result, outcome, fingerprint):
        """Fold one outcome into the study result (selection order)."""
        if outcome.error is not None:
            result.broken += 1
            self.log.warning("app_failed", sha256=outcome.sha256,
                             reason=outcome.error, detail=outcome.message,
                             cached=outcome.cached)
        else:
            result.analyzed += 1
            self._analyzed.inc()
            self.log.debug("analyzed", calls=len(outcome.analysis.calls),
                           classes=outcome.analysis.class_count,
                           cached=outcome.cached)
        # Content identity travels with the analysis so downstream
        # stores (repro.results) can key outcomes by (sha256, options,
        # corpus) — set on cached replays too, keeping cache-on/off
        # results identical.
        outcome.analysis.sha256 = outcome.sha256
        result.add(outcome.analysis)
        if outcome.cacheable and not outcome.cached:
            self.cache.put(outcome.sha256, fingerprint,
                           _CachedEntry(outcome.analysis, outcome.error,
                                        outcome.message))


class PipelineStreamPlan(StreamPlan):
    """One static study's opened run (see :class:`~repro.exec.StreamPlan`).

    Created by :meth:`StaticAnalysisPipeline.stream_plan`. Selection and
    download happen when the plan opens; aggregation, checkpointing and
    progress run as outcomes stream in, in exact selection order, with
    cache hits and download failures merged at their positions.
    """

    name = "static"
    digest_metrics = (
        (EXEC_CLASS_CACHE_HITS_METRIC,
         "Class-facts lookups served without recomputation."),
        (EXEC_CLASS_CACHE_MISSES_METRIC,
         "Class-facts lookups that computed fresh facts."),
        (EXEC_CLASS_BYTES_DEDUPED_METRIC,
         "Canonical class bytes not re-analyzed thanks to the cache."),
        (EXEC_CLASS_TIME_SAVED_METRIC,
         "Estimated clock units saved by class-facts reuse."),
    )

    def __init__(self, pipeline, max_apps=None, progress=None):
        self.pipeline = pipeline
        self.max_apps = max_apps
        self.progress = progress
        self.fingerprint = pipeline.options.cache_key()
        cache = pipeline.cache
        if pipeline.exec_config.class_cache:
            self.digest_cache = cache.classes
        self.eviction_tiers = {"apk": cache, "class": cache.classes}
        super().__init__(
            pipeline,
            sinks=chain_results(pipeline.checkpoint, pipeline.progress_hook),
            labels={"stage": "static",
                    "snapshot": str(pipeline.snapshot_date)},
        )

    def prepare(self):
        self.selected, self.result = self.pipeline._select_for_run(
            self.max_apps
        )
        return self.pipeline._prepare(self.selected)

    def task_fn(self):
        return self.pipeline._task_fn()

    def merge(self, outcome):
        self.pipeline._aggregate(self.result, outcome, self.fingerprint)
        done = outcome.position + 1
        if self.progress is not None and done % 200 == 0:
            self.progress(done, len(self.selected))

    def lost(self, task, message):
        analysis = AppAnalysis(task.package, category=task.category,
                               installs=task.installs)
        analysis.failed = True
        analysis.failure_reason = message
        return AnalysisOutcome(task.position, task.sha256, task.package,
                               analysis)

    def build_result(self):
        result = self.result
        workers = self.config.max_workers
        self.root_span.set_attribute("analyzed", result.analyzed)
        self.root_span.set_attribute("broken", result.broken)
        self.root_span.set_attribute("workers", workers)
        self.log.info("run_complete", analyzed=result.analyzed,
                      broken=result.broken, selected=len(self.selected),
                      workers=workers)
        return result
