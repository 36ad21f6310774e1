"""The injection-impact severity census over the top-1K IAB corpus.

One shard per app, exactly the crawler's discipline
(:mod:`repro.dynamic.crawler`): every shard runs against a fresh
per-shard tracer with a deterministic tick clock, exports its span
tree, and ships picklable findings back to the parent, which merges
them — and records every metric — in app selection order. The census is
therefore byte-identical at any worker count and on both exec backends.

The capability ranking orders SDKs by injection *capability* (highest
severity reached, then how often), not by how many injections were
counted — the distinction the paper's Table 8 cannot make.
"""

import functools
import time

from repro.dynamic.manual_study import ManualStudy
from repro.exec import ExecConfig, StreamPlan, TaskOutcome
from repro.impact.attacker import probe_app
from repro.impact.severity import SEVERITY_ORDER, severity_rank
from repro.obs import (
    IMPACT_APPS_METRIC,
    IMPACT_BRIDGES_METRIC,
    IMPACT_CLEARTEXT_METRIC,
    IMPACT_FINDINGS_METRIC,
    IMPACT_FLOWS_METRIC,
    TickClock,
    Tracer,
    bind_context,
    default_obs,
    get_logger,
    use_tracer,
)
from repro.web.jsengine import script_cache_override

#: Impact shards are whole apps, like crawl shards.
DEFAULT_IMPACT_CHUNK_SIZE = 1


class ImpactShard:
    """One per-app unit of probe work shipped to a worker."""

    __slots__ = ("position", "app")

    def __init__(self, position, app):
        self.position = position
        self.app = app


class _ImpactSettings:
    """Picklable knobs shipped to every shard invocation."""

    __slots__ = ("seed", "real_clock", "cache")

    def __init__(self, seed, real_clock=False, cache=True):
        self.seed = seed
        self.real_clock = real_clock
        self.cache = cache


class ImpactShardOutcome(TaskOutcome):
    """One app shard's probe results, merged in selection order."""

    __slots__ = ("record",)

    def __init__(self, position, package):
        super().__init__(position, package)
        #: The shard's :class:`~repro.impact.attacker.AppImpact`, or
        #: None for a quarantined shard.
        self.record = None


def _run_impact_shard(settings, shard):
    """Pool entry point: probe both attackers against one app.

    Identical inline and in a worker process: fresh tracer, fresh
    deterministic TickClock (unless a real clock was injected), fresh
    simulated device per app, and the compiled-script cache switched by
    ``settings.cache``, as in the crawl shard.
    """
    app = shard.app
    clock = time.perf_counter if settings.real_clock else TickClock()
    tracer = Tracer(clock=clock)
    outcome = ImpactShardOutcome(shard.position, app.package)
    with use_tracer(tracer), \
            bind_context(stage="impact", package=app.package), \
            script_cache_override(settings.cache):
        with tracer.span("impact_app", app=app.name) as root:
            outcome.record = probe_app(app, seed=settings.seed,
                                       tracer=tracer)
    outcome.cost = root.duration
    outcome.spans = [root]
    return outcome


def capability_ranking(pairs):
    """SDKs ranked by injection capability, from ``(sdk, severity)`` pairs.

    Sort key: highest severity reached (descending), then the count of
    findings at each severity rung (descending, worst first), then the
    SDK label — so an SDK with one ``exfiltrate`` outranks one with many
    ``invoke``, which is the point of the census. Returns ``[(sdk,
    max_severity, {severity: count})]``. The one reduction behind
    :meth:`ImpactResult.sdk_capability_ranking` and the served
    ``ResultsService.capability_ranking``.
    """
    per_sdk = {}
    for sdk, severity in pairs:
        counts = per_sdk.setdefault(sdk, dict.fromkeys(SEVERITY_ORDER, 0))
        counts[severity] += 1
    ranked = sorted(
        per_sdk.items(),
        key=lambda item: (
            tuple(-item[1][severity]
                  for severity in reversed(SEVERITY_ORDER)),
            item[0],
        ),
    )
    result = []
    for sdk, counts in ranked:
        reached = max(
            (severity for severity in SEVERITY_ORDER if counts[severity]),
            key=severity_rank, default=SEVERITY_ORDER[0],
        )
        result.append((sdk, reached, counts))
    return result


class ImpactResult:
    """All per-app impact records, in selection order."""

    def __init__(self, records):
        self.records = list(records)

    @property
    def findings(self):
        """Every bridge finding, in selection order."""
        return [finding for record in self.records
                for finding in record.findings]

    def severity_counts(self):
        """(attacker, severity) -> finding count, dict in a fixed order."""
        counts = {}
        for attacker in ("sdk", "mitm"):
            for severity in SEVERITY_ORDER:
                counts[(attacker, severity)] = 0
        for finding in self.findings:
            counts[(finding.attacker, finding.severity)] += 1
        return counts

    def sdk_capability_ranking(self):
        """SDKs ranked by injection capability (see
        :func:`capability_ranking`)."""
        return capability_ranking(
            (finding.sdk, finding.severity) for finding in self.findings
        )


class ImpactCensus:
    """Probes every app in the corpus, sharded per app."""

    def __init__(self, apps=None, seed=0, obs=None, exec_config=None):
        if apps is None:
            apps = ManualStudy(seed=seed).apps()
        self.apps = list(apps)
        self.seed = seed
        self.obs = obs if obs is not None else default_obs()
        if exec_config is None:
            exec_config = ExecConfig(chunk_size=DEFAULT_IMPACT_CHUNK_SIZE)
        self.exec_config = exec_config
        self.log = get_logger("impact.census")
        self._apps_metric = self.obs.counter(
            IMPACT_APPS_METRIC, "Apps probed by the impact census.",
            ("kind",),
        )
        self._bridges_metric = self.obs.counter(
            IMPACT_BRIDGES_METRIC, "Bridges probed by the impact census.",
        )
        self._findings_metric = self.obs.counter(
            IMPACT_FINDINGS_METRIC,
            "Bridge findings recorded, by severity.", ("severity",),
        )
        self._flows_metric = self.obs.counter(
            IMPACT_FLOWS_METRIC,
            "Source->sink taint flows observed during probes.",
        )
        self._cleartext_metric = self.obs.counter(
            IMPACT_CLEARTEXT_METRIC,
            "Cleartext-HTTP (MITM-writable) visits in probe NetLogs.",
        )

    def run(self, progress=None):
        """Run the census; returns an :class:`ImpactResult`."""
        return self.stream_plan(progress=progress).run()

    def stream_plan(self, progress=None):
        """Open a census; see :class:`ImpactStreamPlan`."""
        return ImpactStreamPlan(self, progress=progress)

    def _shard_fn(self):
        settings = _ImpactSettings(
            self.seed,
            real_clock=not isinstance(self.obs.clock, TickClock),
            cache=self.exec_config.cache,
        )
        return functools.partial(_run_impact_shard, settings)

    def _merge_shard(self, outcome, records):
        """Fold one shard into the census (selection order)."""
        record = outcome.record
        if record is None:
            return
        records.append(record)
        self._apps_metric.labels(kind=record.kind).inc()
        if record.cleartext_count:
            self._cleartext_metric.inc(record.cleartext_count)
        bridges = {finding.bridge for finding in record.findings}
        if bridges:
            self._bridges_metric.inc(len(bridges))
        for finding in record.findings:
            self._findings_metric.labels(severity=finding.severity).inc()
            if finding.flow_count:
                self._flows_metric.inc(finding.flow_count)

    def run_report(self):
        """The census's run report (includes the Injection impact table)."""
        return self.obs.run_report(
            "Injection impact census", items_label="apps",
            items_count=len(self.apps), root_span="impact",
        )


class ImpactStreamPlan(StreamPlan):
    """One census's opened run (see :class:`~repro.exec.StreamPlan`).

    One shard per app; a shard lost to repeated worker death leaves its
    app without a record.
    """

    name = "impact"
    root = "impact"

    def __init__(self, census, progress=None):
        self.census = census
        self.records = []
        super().__init__(census, sinks=progress, apps=len(census.apps))

    def prepare(self):
        return [ImpactShard(position, app)
                for position, app in enumerate(self.census.apps)], []

    def task_fn(self):
        return self.census._shard_fn()

    def merge(self, outcome):
        self.census._merge_shard(outcome, self.records)

    def lost(self, shard, message):
        return ImpactShardOutcome(shard.position, shard.app.package)

    def build_result(self):
        self.log.info(
            "census_complete", apps=len(self.records),
            findings=sum(len(r.findings) for r in self.records),
            workers=self.config.max_workers,
        )
        return ImpactResult(self.records)
