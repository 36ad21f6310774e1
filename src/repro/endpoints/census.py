"""Whole-corpus static endpoint reconstruction.

For every selected app, reconstruct the URLs its bytecode can contact by
composing the cached per-class string summaries
(:mod:`repro.endpoints.summaries`) with app-local resolution: a call
graph built from summary-carried invoke triples, entry-point
reachability, the corpus-wide field-constant environment, and a
memoized recursive resolver for strings flowing through method returns.
Cleartext (``http://``/``ws://``) endpoints and embedded credentials are
flagged from the reconstructed text; each endpoint is attributed to its
owning SDK via :class:`~repro.sdk.labeling.SdkLabeler` during the
selection-order merge.

Perf core (the reason this scales to a 100K+-app corpus):

- **Per-class propagation summaries** are memoized under each class's
  content digest as a second fact kind in the shared
  :class:`~repro.exec.ClassFactsCache` (``ENDPOINT_SUMMARY_KIND``) — an
  SDK class embedded in thousands of apps is abstract-interpreted once
  per corpus; every later occurrence composes the cached summary.
- **Whole-app outcomes** are memoized in the
  :class:`~repro.exec.AnalysisCache` outcome tier under ``(sha256,
  fingerprint)``; warm runs skip APK synthesis entirely (the repository
  derives lazy-payload digests from package identity, so the key is
  available without building bytes).
- **Streaming**: the census runs as a :class:`~repro.exec.StreamPlan`
  on the streaming scheduler with its bounded in-flight window. Shards
  carry :class:`~repro.corpus.AppSpec` objects, workers synthesize the
  APK bytes themselves and drop them after summarization — the parent
  never materializes the corpus in memory.

Determinism contract: identical to the static pipeline — results and
metrics are byte-identical at any worker count, either backend, and
with the summary cache on or off (cache
metrics come from a selection-order digest replay, never worker-local
counts). Per-app failures fold into the drop taxonomy
(``endpoint``, ``broken_apk``, ...) instead of aborting the shard.
"""

import functools
import time

from repro.apk.container import read_apk
from repro.callgraph.builder import build_call_graph
from repro.callgraph.entrypoints import entry_point_methods
from repro.corpus.appgen import build_app_apk
from repro.corpus.generator import base_version_code
from repro.dex.model import MethodRef
from repro.errors import EndpointError, NetworkError, ReproError, error_slug
from repro.exec import (
    AnalysisCache,
    BACKEND_PROCESS,
    ClassFactsCache,
    ENDPOINT_SUMMARY_KIND,
    ExecConfig,
    StreamPlan,
    TaskOutcome,
)
from repro.obs import (
    ENDPOINTS_APPS_METRIC,
    ENDPOINTS_CLEARTEXT_METRIC,
    ENDPOINTS_CREDENTIALS_METRIC,
    ENDPOINTS_FOUND_METRIC,
    ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC,
    ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
    ENDPOINTS_SUMMARY_TIME_SAVED_METRIC,
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    TickClock,
    Tracer,
    bind_context,
    current_tracer,
    default_obs,
    get_logger,
    trace_span,
    use_tracer,
)
from repro.reporting import Table
from repro.sdk.labeling import PackageLabel, SdkLabeler
from repro.static_analysis.classfacts import FactsRecorder
from repro.util import sha256_hex
from repro.web.urls import parse_url_cached
from repro.endpoints.summaries import (
    URL_SCHEMES,
    summary_for_class,
)

#: Bumped when the reconstruction algorithm changes shape — part of the
#: outcome-tier fingerprint so stale cached reconstructions never leak
#: across algorithm versions.
ENDPOINT_SCHEMA = 1

#: Schemes whose endpoints a network attacker can rewrite in flight.
CLEARTEXT_SCHEMES = ("http://", "ws://")

#: Attribution buckets that are not catalogued SDK names.
FIRST_PARTY_LABEL = "first-party"
GOOGLE_LABEL = "google"
OBFUSCATED_LABEL = "obfuscated"
UNKNOWN_LABEL = "unknown"

#: Recursion budget for strings flowing through method returns;
#: exceeding it (or a cycle) is a per-app ``endpoint`` drop.
MAX_RESOLUTION_DEPTH = 32


def endpoint_fingerprint(seed):
    """The outcome-tier cache fingerprint for one census configuration.

    Lazy repository payloads derive their sha256 from package identity,
    not content, so the APK seed must be part of the key.
    """
    return ("endpoints", ENDPOINT_SCHEMA, seed)


def lazy_sha256(spec):
    """The repository's identity digest for a spec's lazily built APK."""
    return sha256_hex(
        ("%s:%d" % (spec.package, base_version_code(spec))).encode("utf-8")
    )


class EndpointRecord:
    """One reconstructed endpoint of one app.

    ``partial`` marks prefix-only reconstructions — the resolvable head
    of a URL whose tail is runtime data. ``sdk`` is the attribution
    label (an SDK name, or one of the non-SDK buckets above), stamped by
    the parent during the merge.
    """

    __slots__ = ("url", "partial", "cleartext", "credentials", "host",
                 "registrable_domain", "owner_class", "sdk")

    def __init__(self, url, partial, owner_class, host="",
                 registrable_domain="", credentials=False):
        self.url = url
        self.partial = partial
        self.cleartext = url.startswith(CLEARTEXT_SCHEMES)
        self.credentials = credentials
        self.host = host
        self.registrable_domain = registrable_domain
        self.owner_class = owner_class
        self.sdk = None

    @property
    def owner_package(self):
        return self.owner_class.rsplit(".", 1)[0]

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self):
        return "EndpointRecord(%s%s, %s)" % (
            self.url, "…" if self.partial else "", self.owner_class
        )


class AppEndpoints:
    """One app's reconstructed endpoints, in dex-file order."""

    __slots__ = ("package", "records")

    def __init__(self, package, records=()):
        self.package = package
        self.records = list(records)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self):
        return "AppEndpoints(%s, %d endpoints)" % (
            self.package, len(self.records)
        )


class _Resolver:
    """Memoized template resolution against one app's environments.

    ``fields`` maps ``(class, field)`` to constant text; ``rets`` maps
    method key triples to return templates. Cycles through method
    returns, or recursion past :data:`MAX_RESOLUTION_DEPTH`, raise
    :class:`~repro.errors.EndpointError` — folded into the drop taxonomy
    per app, never aborting the census.
    """

    def __init__(self, fields, rets):
        self._fields = fields
        self._rets = rets
        self._memo = {}
        self._active = set()

    def resolve(self, template, depth=0):
        """Resolve to ``(text, complete)``: the longest known prefix."""
        pieces = []
        for part in template:
            kind = part[0]
            if kind == "lit":
                pieces.append(part[1])
                continue
            if kind == "field":
                value = self._fields.get((part[1], part[2]))
                if value is None:
                    return "".join(pieces), False
                pieces.append(value)
                continue
            if kind == "ret":
                resolved = self._resolve_ret((part[1], part[2], part[3]),
                                             depth)
                if resolved is None:
                    return "".join(pieces), False
                text, complete = resolved
                pieces.append(text)
                if not complete:
                    return "".join(pieces), False
                continue
            return "".join(pieces), False  # unknown part
        return "".join(pieces), True

    def _resolve_ret(self, key, depth):
        if key in self._memo:
            return self._memo[key]
        if key in self._active:
            raise EndpointError(
                "cyclic string flow through %s.%s" % (key[0], key[1])
            )
        if depth >= MAX_RESOLUTION_DEPTH:
            raise EndpointError(
                "string resolution exceeded depth %d at %s.%s"
                % (MAX_RESOLUTION_DEPTH, key[0], key[1])
            )
        template = self._rets.get(key)
        if template is None:
            result = None  # external call: unresolvable
        else:
            self._active.add(key)
            try:
                result = self.resolve(template, depth + 1)
            finally:
                self._active.discard(key)
        self._memo[key] = result
        return result


def reconstruct_endpoints(apk, summaries):
    """Compose per-class summaries into one app's endpoint list.

    ``summaries`` is the dex-order list of
    :class:`~repro.endpoints.summaries.ClassStringSummary`. Everything
    here is app-local: call graph, entry-point reachability, the field
    environment, and template resolution.
    """
    graph = build_call_graph(apk.dex, method_summaries={
        summary.class_name: summary.method_summary
        for summary in summaries
    })
    roots = [
        MethodRef(dex_class.name, method.name, method.descriptor)
        for dex_class, method in entry_point_methods(apk.dex, apk.manifest)
    ]
    reachable = {ref.key() for ref in graph.reachable_from(roots)}

    fields = {}
    rets = {}
    for summary in summaries:
        fields.update(summary.constants)
        for name, descriptor, _, ret_template, _ in summary.methods:
            if ret_template is not None:
                rets[(summary.class_name, name, descriptor)] = ret_template

    resolver = _Resolver(fields, rets)
    result = AppEndpoints(apk.package)
    seen = set()
    for summary in summaries:
        for name, descriptor, _, _, url_templates in summary.methods:
            if not url_templates:
                continue
            if (summary.class_name, name, descriptor) not in reachable:
                continue
            for template in url_templates:
                text, complete = resolver.resolve(template)
                if not text or not text.startswith(URL_SCHEMES):
                    continue
                key = (text, not complete)
                if key in seen:
                    continue
                seen.add(key)
                try:
                    url = parse_url_cached(text)
                    record = EndpointRecord(
                        text, not complete, summary.class_name,
                        host=url.host,
                        registrable_domain=url.registrable_domain,
                        credentials=url.has_credentials,
                    )
                except NetworkError:
                    record = EndpointRecord(text, not complete,
                                            summary.class_name)
                result.records.append(record)
    return result


def analyze_endpoint_bytes(data, summary_cache=None, recorder=None):
    """Reconstruct one app's endpoints from APK bytes.

    Per-class summaries are served from ``summary_cache`` by content
    digest when one is given; ``recorder`` collects the ordered digest
    stream plus newly computed summaries for worker ship-back and
    deterministic cache accounting. Results are byte-identical with or
    without a cache.
    """
    clock = current_tracer().clock
    with trace_span("summarize"):
        apk = read_apk(data)
        summaries = [
            summary_for_class(dex_class, cache=summary_cache,
                              recorder=recorder, clock=clock)
            for dex_class in apk.dex.classes
        ]
    with trace_span("reconstruct", package=apk.package):
        return reconstruct_endpoints(apk, summaries)


class EndpointShard:
    """One per-app unit of reconstruction work shipped to a worker.

    Carries the (small) :class:`~repro.corpus.AppSpec`, never APK
    bytes — the worker synthesizes and drops them, which is what keeps
    a 100K+-app streaming run memory-bounded.
    """

    __slots__ = ("position", "spec", "sha256")

    def __init__(self, position, spec, sha256):
        self.position = position
        self.spec = spec
        self.sha256 = sha256


class _EndpointSettings:
    """Picklable knobs shipped to every shard invocation."""

    __slots__ = ("seed", "real_clock", "summary_cache")

    def __init__(self, seed, real_clock=False, summary_cache=True):
        self.seed = seed
        self.real_clock = real_clock
        self.summary_cache = summary_cache


class EndpointShardOutcome(TaskOutcome):
    """Per-app execution outcome, merged in selection order.

    ``record`` is the app's :class:`AppEndpoints` (None on failure);
    ``class_digests`` / ``new_facts`` are the summary-tier analogue of
    the static pipeline's class-facts ship-back.
    """

    __slots__ = ("sha256", "record", "class_digests", "new_facts")

    def __init__(self, position, sha256, package):
        super().__init__(position, package)
        self.sha256 = sha256
        self.record = None
        self.class_digests = None
        self.new_facts = None


def _execute_endpoint_shard(settings, shard, summary_cache, recorder):
    """Run one shard with per-app fault isolation.

    Any :class:`ReproError` (broken APK, cyclic string flow, ...)
    becomes a failed outcome carrying its drop slug; only non-library
    exceptions — genuine bugs — propagate and abort the run.
    """
    outcome = EndpointShardOutcome(shard.position, shard.sha256,
                                   shard.spec.package)
    try:
        data = build_app_apk(shard.spec, seed=settings.seed)
        outcome.record = analyze_endpoint_bytes(
            data, summary_cache=summary_cache, recorder=recorder
        )
    except ReproError as exc:
        outcome.error = error_slug(exc)
        outcome.message = str(exc)
    if recorder is not None:
        outcome.class_digests = recorder.digests
        outcome.new_facts = recorder.new
    return outcome


#: Process-local summary cache for pool workers — the endpoint analogue
#: of the pipeline's worker facts cache: it deduplicates across the
#: chunks one worker processes; the parent merges shipped ``new_facts``
#: to cover everything else.
_WORKER_SUMMARIES = None


def _worker_summaries_cache():
    global _WORKER_SUMMARIES
    if _WORKER_SUMMARIES is None:
        _WORKER_SUMMARIES = ClassFactsCache(max_entries=None, cache_dir=None,
                                            kind=ENDPOINT_SUMMARY_KIND)
    return _WORKER_SUMMARIES


def _run_endpoint_shard(settings, shard):
    """Process-pool entry point: reconstruct one app in a worker."""
    clock = time.perf_counter if settings.real_clock else TickClock()
    tracer = Tracer(clock=clock)
    summary_cache = (_worker_summaries_cache() if settings.summary_cache
                     else None)
    recorder = FactsRecorder() if settings.summary_cache else None
    with use_tracer(tracer), \
            bind_context(stage="endpoints", package=shard.spec.package):
        with tracer.span("endpoints_app",
                         package=shard.spec.package) as root:
            outcome = _execute_endpoint_shard(settings, shard,
                                              summary_cache, recorder)
    outcome.cost = root.duration
    outcome.spans = [root.to_dict()]
    return outcome


class EndpointResult:
    """All per-app endpoint lists, in selection order."""

    def __init__(self, apps):
        self.apps = list(apps)

    @property
    def records(self):
        """Every endpoint record, in selection order."""
        return [record for app in self.apps for record in app.records]

    def by_package(self):
        return {app.package: app for app in self.apps}

    def sdk_census(self):
        """``{sdk: {total, full, partial, cleartext, credentials}}``."""
        census = {}
        for record in self.records:
            row = census.setdefault(record.sdk, {
                "total": 0, "full": 0, "partial": 0,
                "cleartext": 0, "credentials": 0,
            })
            row["total"] += 1
            row["partial" if record.partial else "full"] += 1
            if record.cleartext:
                row["cleartext"] += 1
            if record.credentials:
                row["credentials"] += 1
        return census

    def census_table(self):
        """The per-SDK endpoint census as a reporting table."""
        table = Table(
            ["sdk", "endpoints", "full", "partial", "cleartext",
             "credentials"],
            title="Static endpoint census",
        )
        census = self.sdk_census()
        for sdk in sorted(census, key=lambda name: (name is None, name)):
            row = census[sdk]
            table.add_row(sdk, row["total"], row["full"], row["partial"],
                          row["cleartext"], row["credentials"])
        return table

    def flag_table(self):
        """Cleartext / credentialed endpoints, worst registrable domains."""
        table = Table(
            ["registrable domain", "sdk", "cleartext", "credentials"],
            title="Flagged endpoints",
        )
        flagged = {}
        for record in self.records:
            if not (record.cleartext or record.credentials):
                continue
            row = flagged.setdefault(
                (record.registrable_domain, record.sdk), [0, 0]
            )
            row[0] += 1 if record.cleartext else 0
            row[1] += 1 if record.credentials else 0
        ordered = sorted(
            flagged.items(),
            key=lambda item: (-(item[1][0] + item[1][1]), item[0]),
        )
        for (domain, sdk), (cleartext, credentials) in ordered:
            table.add_row(domain, sdk, cleartext, credentials)
        return table


class EndpointCensus:
    """Reconstructs endpoints for every selected app, sharded per app."""

    def __init__(self, corpus, apps=None, seed=None, labeler=None, obs=None,
                 exec_config=None, cache=None):
        self.corpus = corpus
        if apps is None:
            apps = corpus.selected_specs()
        self.apps = list(apps)
        self.seed = corpus.config.seed if seed is None else seed
        self.labeler = labeler or SdkLabeler(corpus.catalog)
        self.obs = obs if obs is not None else default_obs()
        self.exec_config = (exec_config if exec_config is not None
                            else ExecConfig())
        if cache is None:
            cache = getattr(corpus, "analysis_cache", None)
        self.cache = cache if cache is not None else AnalysisCache()
        self.fingerprint = endpoint_fingerprint(self.seed)
        self.log = get_logger("endpoints.census")
        self._apps_metric = self.obs.counter(
            ENDPOINTS_APPS_METRIC,
            "Apps whose endpoints were statically reconstructed.",
        )
        self._found_metric = self.obs.counter(
            ENDPOINTS_FOUND_METRIC,
            "Reconstructed endpoints, by completeness.", ("kind",),
        )
        self._cleartext_metric = self.obs.counter(
            ENDPOINTS_CLEARTEXT_METRIC,
            "Reconstructed cleartext (http/ws) endpoints.",
        )
        self._credentials_metric = self.obs.counter(
            ENDPOINTS_CREDENTIALS_METRIC,
            "Reconstructed endpoints embedding credentials.",
        )
        self._cache_hits = self.obs.counter(
            EXEC_CACHE_HITS_METRIC,
            "Per-app analysis outcomes served from the result cache.",
        )
        self._cache_misses = self.obs.counter(
            EXEC_CACHE_MISSES_METRIC,
            "Per-app analysis outcomes that required real work.",
        )

    # -- entry points --------------------------------------------------------

    def run(self, progress=None):
        """Run the census; returns an :class:`EndpointResult`."""
        return self.stream_plan(progress=progress).run()

    def stream_plan(self, progress=None):
        """Open a census; see :class:`EndpointStreamPlan`."""
        return EndpointStreamPlan(self, progress=progress)

    # -- sharded execution ---------------------------------------------------

    def _prepare(self):
        """Outcome-tier short-circuits plus the worker shard list.

        Returns ``(shards, served)``: the shards to execute and the
        outcomes of every cached position. The cache key uses the
        repository's identity digest, so warm runs skip APK synthesis
        entirely.
        """
        shards = []
        served = []
        for position, spec in enumerate(self.apps):
            sha256 = lazy_sha256(spec)
            entry = self.cache.get(sha256, self.fingerprint)
            if entry is not None:
                self._cache_hits.inc()
                outcome = EndpointShardOutcome(position, sha256,
                                               spec.package)
                outcome.record, outcome.error, outcome.message = entry
                outcome.cached = True
                served.append(outcome)
                continue
            self._cache_misses.inc()
            shards.append(EndpointShard(position, spec, sha256))
        return shards, served

    def _shard_fn(self):
        settings = _EndpointSettings(
            self.seed,
            real_clock=not isinstance(self.obs.clock, TickClock),
            summary_cache=self.exec_config.endpoint_cache,
        )
        if self.exec_config.resolved_backend == BACKEND_PROCESS:
            return functools.partial(_run_endpoint_shard, settings)
        return functools.partial(self._inline_shard, settings)

    def _inline_shard(self, settings, shard):
        """In-process execution path: trace into the census tracer."""
        summary_cache = (self.cache.summaries if settings.summary_cache
                         else None)
        recorder = FactsRecorder() if settings.summary_cache else None
        with bind_context(package=shard.spec.package), \
                self.obs.span("endpoints_app",
                              package=shard.spec.package) as span:
            outcome = _execute_endpoint_shard(settings, shard,
                                              summary_cache, recorder)
        outcome.cost = span.duration
        outcome.span = span
        return outcome

    # -- aggregation ---------------------------------------------------------

    def _attribution(self, app_package, owner_package):
        """The SDK label for one endpoint's owning Java package."""
        if owner_package == app_package or owner_package.startswith(
            app_package + "."
        ):
            return FIRST_PARTY_LABEL
        label = self.labeler.label(owner_package)
        if label.status == PackageLabel.EXCLUDED:
            return GOOGLE_LABEL
        if label.status == PackageLabel.KNOWN:
            return label.sdk.name
        if label.status == PackageLabel.OBFUSCATED:
            return OBFUSCATED_LABEL
        return UNKNOWN_LABEL

    def _merge_outcome(self, outcome, apps):
        """Fold one outcome into the census (selection order)."""
        if outcome.cacheable and not outcome.cached:
            self.cache.put(outcome.sha256, self.fingerprint,
                           (outcome.record, outcome.error, outcome.message))
        if outcome.error is not None:
            self.log.warning("app_failed", reason=outcome.error,
                             detail=outcome.message, cached=outcome.cached)
            return
        app = outcome.record
        for record in app.records:
            record.sdk = self._attribution(app.package, record.owner_package)
            kind = "partial" if record.partial else "full"
            self._found_metric.labels(kind=kind).inc()
            if record.cleartext:
                self._cleartext_metric.inc()
            if record.credentials:
                self._credentials_metric.inc()
        apps.append(app)
        self._apps_metric.inc()

    def run_report(self):
        """The census's run report (includes the Static endpoints table)."""
        return self.obs.run_report(
            "Static endpoint census", items_label="apps",
            items_count=len(self.apps), root_span="endpoints",
        )


class EndpointStreamPlan(StreamPlan):
    """One census's opened run (see :class:`~repro.exec.StreamPlan`).

    Shards stream through the scheduler's bounded in-flight window;
    cached positions short-circuit through the same selection-order
    merge. The parent holds only specs and merged endpoint lists — no
    APK bytes — so memory stays bounded at corpus scale.
    """

    name = "endpoints"
    root = "endpoints"
    digest_metrics = (
        (ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
         "Summary lookups served without re-interpretation."),
        (ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
         "Summary lookups that interpreted fresh bytecode."),
        (ENDPOINTS_SUMMARY_BYTES_DEDUPED_METRIC,
         "Canonical class bytes not re-interpreted thanks to the cache."),
        (ENDPOINTS_SUMMARY_TIME_SAVED_METRIC,
         "Estimated clock units saved by summary reuse."),
    )

    def __init__(self, census, progress=None):
        self.census = census
        self.apps = []
        cache = census.cache
        if census.exec_config.endpoint_cache:
            self.digest_cache = cache.summaries
        self.eviction_tiers = {"apk": cache, "summary": cache.summaries}
        super().__init__(census, sinks=progress, apps=len(census.apps))

    def prepare(self):
        return self.census._prepare()

    def task_fn(self):
        return self.census._shard_fn()

    def merge(self, outcome):
        self.census._merge_outcome(outcome, self.apps)

    def lost(self, shard, message):
        return EndpointShardOutcome(shard.position, shard.sha256,
                                    shard.spec.package)

    def build_result(self):
        self.log.info(
            "census_complete", apps=len(self.apps),
            endpoints=sum(len(a.records) for a in self.apps),
            workers=self.config.max_workers,
        )
        return EndpointResult(self.apps)
