"""The delta planner: run one snapshot incrementally against a RunStore.

:class:`IncrementalRunner` turns the one-shot
:class:`~repro.static_analysis.pipeline.StaticAnalysisPipeline` into an
incremental engine. For each requested snapshot it:

1. diffs the snapshot against the latest completed run's snapshot
   (:func:`~repro.androzoo.repository.diff_snapshots`) to plan and
   report the work — added/updated APKs need analysis, unchanged ones do
   not;
2. recovers any checkpoint a killed run of the same snapshot left
   behind;
3. runs the pipeline with a :class:`~repro.longitudinal.runstore.\
StoreBackedCache` priming its cache-hit path — which is how the plan is
   *enforced*: unchanged APKs short-circuit before download, new/changed
   APKs flow to the :mod:`repro.exec` pool with a
   :class:`~repro.longitudinal.runstore.CheckpointSink` persisting each
   outcome as it completes;
4. finalizes the run: outcomes promoted into the store, a completion
   manifest written, the checkpoint cleared.

Because carried-forward outcomes replay through the pipeline's ordinary
selection-order aggregation, the merged
:class:`~repro.static_analysis.results.StudyResult` is byte-identical to
a cold full run of the same snapshot — delta runs change *cost*, never
results.
"""

import datetime

from repro.androzoo.repository import diff_snapshots
from repro.exec import ExecConfig
from repro.longitudinal.runstore import (
    CheckpointSink,
    RunHandle,
    RunStore,
    StoreBackedCache,
    options_token,
)
from repro.obs import (
    LONGITUDINAL_APPS_METRIC,
    LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC,
    LONGITUDINAL_DELTA_METRIC,
    LONGITUDINAL_RUNS_METRIC,
    default_obs,
    get_logger,
)
from repro.static_analysis.pipeline import (
    PipelineOptions,
    StaticAnalysisPipeline,
)


class IncrementalRun:
    """One snapshot run's result plus its incremental accounting."""

    def __init__(self, snapshot_date, run_id, result, delta, manifest,
                 fresh, carried, resumed, recovered, flushes, mode):
        self.snapshot_date = snapshot_date
        self.run_id = run_id
        #: The merged StudyResult — byte-identical to a cold run.
        self.result = result
        #: SnapshotDelta vs the prior completed run (None for the first).
        self.delta = delta
        self.manifest = manifest
        #: Apps actually analyzed this run (pool work).
        self.fresh = fresh
        #: Apps served from prior completed runs' outcomes.
        self.carried = carried
        #: Apps served from a killed run's recovered checkpoint.
        self.resumed = resumed
        #: Checkpoint entries recovered at startup.
        self.recovered = recovered
        #: Atomic checkpoint rewrites performed during the run.
        self.flushes = flushes
        #: "cold" | "delta" | "resumed" — how this run executed.
        self.mode = mode

    @property
    def planned(self):
        """Apps the funnel selected for this snapshot."""
        return self.fresh + self.carried + self.resumed

    @property
    def analyzed_fraction(self):
        """Share of selected apps that required real analysis."""
        return self.fresh / self.planned if self.planned else 0.0

    def __repr__(self):
        return ("IncrementalRun(%s, %s, fresh=%d, carried=%d, resumed=%d)"
                % (self.snapshot_date, self.mode, self.fresh, self.carried,
                   self.resumed))


class IncrementalRunner:
    """Schedules snapshot runs of one corpus through a RunStore."""

    def __init__(self, corpus, run_store=None, options=None, labeler=None,
                 obs=None, exec_config=None, checkpoint_every=25,
                 telemetry=None, results_store=None, progress_hook=None):
        from repro.results.store import study_sinks

        self.corpus = corpus
        self.store = run_store if run_store is not None else RunStore()
        self.options = options or PipelineOptions()
        self.labeler = labeler
        self.obs = obs if obs is not None else default_obs()
        self.exec_config = (exec_config if exec_config is not None
                            else ExecConfig())
        self.checkpoint_every = checkpoint_every
        #: Run-history and queryable results sinks; each defaults to the
        #: ``REPRO_RESULTS_DB`` store. Each snapshot run is recorded and
        #: its manifest points back at the run via ``telemetry_run``.
        #: Snapshot ingests are keyed by (corpus, options, date), so a
        #: timeline's runs *append* snapshot rows — re-running a date is
        #: an idempotent no-op in the store.
        self.telemetry, self.results_store = study_sinks(telemetry,
                                                         results_store)
        self.progress_hook = progress_hook
        #: Store namespace: universe identity x options fingerprint.
        self.context = "%s-%s" % (
            corpus.fingerprint(), options_token(self.options.cache_key())
        )
        self.log = get_logger("longitudinal.runner")

    def run_id_for(self, snapshot_date):
        return "run-%s" % _coerce_date(snapshot_date).isoformat()

    def plan(self, snapshot_date):
        """(prior manifest, SnapshotDelta) for a snapshot, without running.

        The delta is computed against the latest *completed* run of a
        strictly earlier snapshot; a first-ever run plans against an
        empty baseline (every APK "added").
        """
        date = _coerce_date(snapshot_date)
        prior = self.store.latest_complete(self.context,
                                           before=date.isoformat())
        new_snapshot = self.corpus.repository.snapshot(date)
        old_snapshot = None
        if prior is not None:
            old_snapshot = self.corpus.repository.snapshot(
                datetime.date.fromisoformat(prior["snapshot_date"])
            )
        return prior, diff_snapshots(old_snapshot, new_snapshot)

    def run_snapshot(self, snapshot_date, max_apps=None, progress=None):
        """Run one snapshot incrementally; returns an IncrementalRun."""
        date = _coerce_date(snapshot_date)
        fingerprint = self.options.cache_key()
        run_id = self.run_id_for(date)

        prior, delta = self.plan(date)
        recovered = self.store.load_checkpoint(self.context, run_id)
        cache = StoreBackedCache(
            self.store, self.context, recovered=recovered,
            classes=self.corpus.analysis_cache.classes,
        )
        handle = RunHandle(self.store, self.context, run_id,
                           recovered=recovered)
        sink = CheckpointSink(handle, fingerprint,
                              every=self.checkpoint_every)
        self.log.info(
            "snapshot_run_planned", snapshot=date.isoformat(),
            run_id=run_id, recovered=len(recovered),
            prior=prior["snapshot_date"] if prior else None,
            **delta.counts(),
        )

        pipeline = StaticAnalysisPipeline(
            self.corpus, options=self.options, labeler=self.labeler,
            obs=self.obs, exec_config=self.exec_config, cache=cache,
            snapshot_date=date, checkpoint=sink,
            progress_hook=self.progress_hook,
        )
        result = pipeline.run(max_apps=max_apps, progress=progress)
        handle.flush()
        # Telemetry is recorded *before* finalize so the completion
        # manifest can carry the pointer to its run record.
        telemetry_run = None
        if self.telemetry is not None:
            telemetry_run = self.telemetry.record_run(
                self.obs, "longitudinal", label=date.isoformat(),
                corpus=self.corpus.fingerprint(),
                options=options_token(fingerprint),
                items=result.analyzed, root_span="run",
            )
        if self.results_store is not None:
            self.results_store.ingest(
                result,
                corpus=self.corpus.fingerprint(),
                options=options_token(fingerprint),
                snapshot=date.isoformat(),
            )
        manifest = handle.finalize(
            snapshot_date=date.isoformat(),
            context=self.context,
            funnel=result.funnel_dict(),
            fresh=cache.fresh,
            carried=cache.carried,
            resumed=cache.resumed,
            delta=delta.counts(),
            prior_run=prior["run_id"] if prior else None,
            telemetry_run=telemetry_run,
        )

        mode = ("resumed" if recovered
                else ("delta" if prior is not None else "cold"))
        run = IncrementalRun(
            date, run_id, result, delta, manifest,
            fresh=cache.fresh, carried=cache.carried, resumed=cache.resumed,
            recovered=len(recovered), flushes=handle.flushes, mode=mode,
        )
        self._record_metrics(run)
        self.log.info(
            "snapshot_run_complete", snapshot=date.isoformat(), mode=mode,
            fresh=run.fresh, carried=run.carried, resumed=run.resumed,
            analyzed=result.analyzed,
        )
        return run

    def _record_metrics(self, run):
        with self.obs.activate():
            apps = self.obs.counter(
                LONGITUDINAL_APPS_METRIC,
                "Selected apps per incremental run, by how they were "
                "satisfied.",
                ("mode",),
            )
            for mode, count in (("fresh", run.fresh),
                                ("carried", run.carried),
                                ("resumed", run.resumed)):
                if count:
                    apps.labels(mode=mode).inc(count)
            self.obs.counter(
                LONGITUDINAL_RUNS_METRIC,
                "Incremental snapshot runs, by execution mode.",
                ("mode",),
            ).labels(mode=run.mode).inc()
            deltas = self.obs.counter(
                LONGITUDINAL_DELTA_METRIC,
                "Index-level APK changes between consecutive snapshots.",
                ("change",),
            )
            for change, count in run.delta.counts().items():
                if count:
                    deltas.labels(change=change).inc(count)
            if run.flushes:
                self.obs.counter(
                    LONGITUDINAL_CHECKPOINT_FLUSHES_METRIC,
                    "Atomic mid-run checkpoint writes.",
                ).inc(run.flushes)


def _coerce_date(value):
    if isinstance(value, str):
        return datetime.date.fromisoformat(value)
    if isinstance(value, datetime.datetime):
        return value.date()
    return value
