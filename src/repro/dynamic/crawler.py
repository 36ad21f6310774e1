"""The ADB-driven top-site crawler (Section 3.2.2).

For each app, a distinct crawler drives the app's unique UI via simulated
ADB steps: launch the app, navigate to the link surface by tapping
predetermined coordinates, insert the crawl URL, tap it to open the IAB,
scroll to the page end, wait 20 seconds for resources, collect the
device's network log, then purge logs, kill the app and wait 1 minute.
A System WebView Shell baseline establishes the requests expected from an
uninstrumented WebView; Figure 6 reports the *app-specific* endpoints.

The (app x site) workload is embarrassingly parallel: every app crawls
with its own :class:`~repro.dynamic.device.Device` and
:class:`~repro.netstack.network.Network`, so the crawl is sharded
per app over a :mod:`repro.exec` worker pool (the baseline shell is one
ordinary shard, crawled once). Both the inline and the process backend
run the same shard function against a fresh per-shard tracer, and the
parent merges visits, spans, ADB transcripts and metrics in deterministic
(app, site) selection order — so :class:`CrawlResult`, exported metrics
and the trace tree are byte-identical at any worker count and backend.
Compiled-script cache accounting follows the same discipline: shards
always record their ``(script digest, parse cost)`` streams (whether the
cache is enabled or not) and the parent replays them in selection order,
so the registry is also byte-identical with ``REPRO_SCRIPT_CACHE`` on or
off.
"""

import collections
import functools
import time

from repro.dynamic.apps import RealAppProfile
from repro.dynamic.device import Device
from repro.dynamic.iab import IabKind
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.exec import ExecConfig, StreamPlan, TaskOutcome
from repro.exec.config import CHUNK_SIZE_ENV_VAR, _env_int
from repro.netstack.network import Network, Request
from repro.obs import (
    CRAWL_NETLOG_EVENTS_METRIC,
    CRAWL_VISIT_ENDPOINTS_METRIC,
    CRAWL_VISITS_METRIC,
    SCRIPT_CACHE_HITS_METRIC,
    SCRIPT_CACHE_MISSES_METRIC,
    SCRIPT_CACHE_TIME_SAVED_METRIC,
    TickClock,
    Tracer,
    bind_context,
    default_obs,
    get_logger,
    use_tracer,
)
from repro.web.classify import classify_endpoint
from repro.web.jsengine import record_script_events, script_cache_override
from repro.web.sites import top_sites

_ENDPOINT_BUCKETS = (1, 2, 5, 10, 20, 50, 100)

#: Android's System WebView Shell app — the uninstrumented baseline [32].
SYSTEM_WEBVIEW_SHELL = RealAppProfile(
    "org.chromium.webview_shell", "System WebView Shell", 0, "URL bar",
    IabKind.WEBVIEW,
)

PAGE_LOAD_WAIT_MS = 20_000
BETWEEN_CRAWLS_WAIT_MS = 60_000

#: Crawl shards are whole apps — far coarser than the static pipeline's
#: per-APK tasks — so one shard per dispatch is the right default unless
#: ``REPRO_CHUNK_SIZE`` says otherwise.
DEFAULT_CRAWL_CHUNK_SIZE = 1

#: Cap on the retained simulated-ADB transcript: at 1K apps x 100 sites
#: an unbounded list would dominate crawler memory for no analytical
#: value, so only the most recent commands are kept.
DEFAULT_ADB_LOG_LIMIT = 10_000


class SiteVisit:
    """One (app, site) crawl observation."""

    def __init__(self, app, site, endpoints):
        self.app = app
        self.site = site
        #: Every URL the IAB's network log saw during this visit.
        self.endpoints = list(endpoints)

    def hosts(self):
        """Distinct contacted hosts in first-seen order."""
        seen = dict.fromkeys(
            url.split("://", 1)[1].split("/", 1)[0]
            for url in self.endpoints
        )
        return list(seen)

    def __repr__(self):
        return "SiteVisit(%s @ %s, %d endpoints)" % (
            self.app.name, self.site.host, len(self.endpoints)
        )


class CrawlResult:
    """All visits, plus baseline-differencing and classification."""

    def __init__(self, visits, baseline_visits):
        self.visits = list(visits)
        self._baseline = {
            visit.site.host: set(visit.hosts())
            for visit in baseline_visits
        }
        #: (host, intended_url) -> endpoint type. Classification is a
        #: pure function of its inputs and the same hosts recur in every
        #: visit, so summaries memoize it here.
        self._classified = {}

    def visits_for(self, app_name):
        return [v for v in self.visits if v.app.name == app_name]

    def app_specific_hosts(self, visit):
        """Hosts contacted by this IAB but not by the baseline shell."""
        baseline = self._baseline.get(visit.site.host, set())
        return [host for host in visit.hosts() if host not in baseline]

    def _classify(self, host, intended_url):
        key = (host, intended_url)
        endpoint_type = self._classified.get(key)
        if endpoint_type is None:
            endpoint_type = classify_endpoint(host, intended_url=intended_url)
            self._classified[key] = endpoint_type
        return endpoint_type

    def endpoint_summary(self, app_name):
        """Figure 6 data: site category -> mean distinct app-specific
        endpoints, plus per-category breakdown by endpoint type."""
        from collections import defaultdict

        per_category_counts = defaultdict(list)
        per_category_types = defaultdict(lambda: defaultdict(list))
        for visit in self.visits_for(app_name):
            specific = self.app_specific_hosts(visit)
            category = str(visit.site.category)
            per_category_counts[category].append(len(specific))
            type_counts = defaultdict(int)
            for host in specific:
                endpoint_type = self._classify(host, visit.site.landing_url)
                type_counts[str(endpoint_type)] += 1
            for endpoint_type, count in type_counts.items():
                per_category_types[category][endpoint_type].append(count)
        means = {
            category: sum(counts) / len(counts)
            for category, counts in per_category_counts.items()
        }
        type_means = {
            category: {
                endpoint_type: sum(counts) / len(counts)
                for endpoint_type, counts in types.items()
            }
            for category, types in per_category_types.items()
        }
        return means, type_means


# -- sharded execution ---------------------------------------------------------

class CrawlShard:
    """One per-app unit of crawl work shipped to a worker."""

    __slots__ = ("position", "app")

    def __init__(self, position, app):
        self.position = position
        self.app = app


class _ShardSettings:
    """Picklable knobs shipped to every shard invocation."""

    __slots__ = ("sites", "seed", "real_clock", "script_cache",
                 "adb_log_limit")

    def __init__(self, sites, seed, real_clock=False, script_cache=True,
                 adb_log_limit=DEFAULT_ADB_LOG_LIMIT):
        self.sites = sites
        self.seed = seed
        self.real_clock = real_clock
        self.script_cache = script_cache
        self.adb_log_limit = adb_log_limit


class _VisitRecord:
    """One visit's shippable results (the parent rebuilds SiteVisit)."""

    __slots__ = ("endpoints", "netlog_event_counts")

    def __init__(self, endpoints, netlog_event_counts):
        self.endpoints = endpoints
        #: Sorted (event type value, count) pairs for metric replay.
        self.netlog_event_counts = netlog_event_counts


class ShardOutcome(TaskOutcome):
    """One app shard's results, merged by the parent in selection order.

    Every shard traces into a fresh per-shard tracer, on both backends,
    and exports its span tree in ``spans``, so traces are identical
    whichever side of the process boundary the work ran on.
    ``script_events`` is the ordered ``(digest, parse cost)`` stream the
    parent replays for deterministic script-cache accounting;
    ``adb_commands`` is the shard's bounded ADB transcript.
    """

    __slots__ = ("visits", "adb_commands", "script_events")

    def __init__(self, position, package):
        super().__init__(position, package)
        self.visits = []
        self.adb_commands = []
        self.script_events = []


def _visit_site(app, site, device, span, seed, adb):
    """One scripted visit: the five ADB steps plus log collection."""
    adb.append("am start -n %s/.MainActivity" % app.package)
    adb.append("input tap 540 1200")           # navigate to surface
    adb.append("input text '%s'" % site.landing_url)
    adb.append("input tap 540 1400")           # tap the URL

    runtime = WebViewRuntime(app.package, device)
    app.open_link(device, site.landing_url, runtime=runtime)

    # The page pulls its own subresources and third parties.
    for path in site.first_party_resources():
        device.network.fetch(
            Request("https://%s%s" % (site.host, path)),
            netlog=runtime.netlog, time_ms=device.clock_ms,
        )
    for third_party in site.third_party_hosts:
        device.network.fetch(
            Request("https://%s/loader.js" % third_party),
            netlog=runtime.netlog, time_ms=device.clock_ms,
        )
    # App-IAB-specific traffic (injection side effects).
    for endpoint in app.extra_endpoints(site, seed=seed):
        device.network.fetch(
            Request(endpoint), netlog=runtime.netlog,
            time_ms=device.clock_ms,
        )

    adb.append("input swipe 540 1600 540 300")  # scroll to the end
    device.advance_clock(PAGE_LOAD_WAIT_MS)     # 20s resource wait

    endpoints = runtime.netlog.urls()
    # Bridge the per-instance NetLog into the owning visit's span before
    # the on-device log is purged, so the trace tree retains the full
    # event stream for this page load.
    event_counts = {}
    for event in runtime.netlog.events:
        record = event.to_dict()
        span.add_event(record.pop("type"),
                       time=record.pop("time_ms"), **record)
        value = event.event_type.value
        event_counts[value] = event_counts.get(value, 0) + 1
    span.set_attribute("endpoints", len(endpoints))
    span.set_attribute("netlog_source_id", runtime.netlog.source_id)

    adb.append("logcat -c")                     # purge device logs
    runtime.netlog.purge()
    adb.append("am force-stop %s" % app.package)
    device.advance_clock(BETWEEN_CRAWLS_WAIT_MS)
    return _VisitRecord(endpoints, sorted(event_counts.items()))


def _run_crawl_shard(settings, shard):
    """Pool entry point: crawl every site through one app's IAB.

    Runs identically inline and in a worker process: a fresh tracer with
    a fresh deterministic TickClock (unless the study injected a real
    clock), a fresh Device + Network per app (exactly the serial
    pattern), and script events recorded regardless of whether the
    compiled-script cache is enabled.
    """
    app = shard.app
    clock = time.perf_counter if settings.real_clock else TickClock()
    tracer = Tracer(clock=clock)
    outcome = ShardOutcome(shard.position, app.package)
    adb = collections.deque(maxlen=settings.adb_log_limit)
    with use_tracer(tracer), \
            bind_context(stage="crawl", package=app.package), \
            script_cache_override(settings.script_cache), \
            record_script_events(outcome.script_events):
        with tracer.span("crawl_app", app=app.name) as root:
            network = Network(seed=settings.seed, strict=False)
            for site in settings.sites:
                network.register_site(site)
            device = Device(network=network)
            device.install(app)
            for site in settings.sites:
                with tracer.span("visit", app=app.name,
                                 site=site.host) as span:
                    record = _visit_site(app, site, device, span,
                                         settings.seed, adb)
                outcome.visits.append(record)
    outcome.cost = root.duration
    outcome.spans = [root.to_dict()]
    outcome.adb_commands = list(adb)
    return outcome


class AdbCrawler:
    """Crawls the top sites through each app's IAB, sharded per app."""

    def __init__(self, apps, sites=None, seed=0, include_baseline=True,
                 obs=None, exec_config=None,
                 adb_log_limit=DEFAULT_ADB_LOG_LIMIT):
        self.apps = list(apps)
        self.sites = list(sites) if sites is not None else top_sites(100)
        self.seed = seed
        self.include_baseline = include_baseline
        self.adb_log_limit = adb_log_limit
        self.adb_commands = collections.deque(maxlen=adb_log_limit)
        self.obs = obs if obs is not None else default_obs()
        if exec_config is None:
            exec_config = ExecConfig(chunk_size=_env_int(
                CHUNK_SIZE_ENV_VAR, DEFAULT_CRAWL_CHUNK_SIZE
            ))
        self.exec_config = exec_config
        self.log = get_logger("dynamic.crawler")
        self._visits = self.obs.counter(
            CRAWL_VISITS_METRIC, "Completed (app, site) crawl visits.",
            ("app",),
        )
        self._netlog_events = self.obs.counter(
            CRAWL_NETLOG_EVENTS_METRIC,
            "NetLog events captured during crawl visits, by event type.",
            ("event_type",),
        )
        self._endpoints = self.obs.histogram(
            CRAWL_VISIT_ENDPOINTS_METRIC,
            "Distinct endpoints contacted per visit.",
            buckets=_ENDPOINT_BUCKETS,
        )

    def crawl(self, progress=None):
        """Run the full crawl; returns a :class:`CrawlResult`.

        ``progress``, when given, is called with each app's
        :class:`ShardOutcome` in completion order; results are still
        merged in selection order.
        """
        return self.stream_plan(progress=progress).run()

    def stream_plan(self, progress=None):
        """Open a crawl and return its :class:`CrawlStreamPlan`.

        The plan's ``stage`` waits for a
        :class:`~repro.exec.StreamScheduler` (possibly shared with other
        studies' stages) and ``finalize`` closes the run.
        """
        return CrawlStreamPlan(self, progress=progress)

    def _shard_fn(self):
        """The per-shard callable (identical for both backends)."""
        settings = _ShardSettings(
            self.sites, self.seed,
            real_clock=not isinstance(self.obs.clock, TickClock),
            script_cache=self.exec_config.script_cache,
            adb_log_limit=self.adb_log_limit,
        )
        return functools.partial(_run_crawl_shard, settings)

    def _merge_shard(self, app, outcome, visits, baseline_visits):
        """Fold one shard into the crawl (selection order).

        Rebuilds each SiteVisit against the parent's own app and site
        objects (so baseline identity and ``visits_for`` behave exactly
        as in a serial crawl), extends the bounded ADB transcript, and
        replays the per-visit metrics.
        """
        self.adb_commands.extend(outcome.adb_commands)
        for site, record in zip(self.sites, outcome.visits):
            visit = SiteVisit(app, site, record.endpoints)
            if app is SYSTEM_WEBVIEW_SHELL:
                baseline_visits.append(visit)
            else:
                visits.append(visit)
            self._visits.labels(app=app.name).inc()
            for event_type, count in record.netlog_event_counts:
                self._netlog_events.labels(event_type=event_type).inc(count)
            self._endpoints.observe(len(record.endpoints))
            self.log.debug("visit_complete", app=app.name, site=site.host,
                           endpoints=len(record.endpoints))

    def _record_script_metrics(self, outcomes):
        """Deterministic script-cache accounting by selection-order replay.

        Worker-local hit counts depend on chunk scheduling and on cache
        warmth, so they never feed metrics. Instead every shard records
        its ordered ``(digest, parse cost)`` stream — whether the cache
        was enabled or not — and the parent replays the streams in
        selection order: the first occurrence of a digest is the miss
        that pays its parse cost, every later occurrence is a hit that
        saves it. Byte-identical at any worker count, backend, and cache
        setting.
        """
        seen = {}
        hits = misses = 0
        saved = 0.0
        for outcome in outcomes:
            for digest, cost in outcome.script_events:
                if digest in seen:
                    hits += 1
                    saved += seen[digest]
                else:
                    seen[digest] = cost
                    misses += 1
        self.obs.counter(
            SCRIPT_CACHE_HITS_METRIC,
            "Script parses served from the compiled-script cache.",
        ).inc(hits)
        self.obs.counter(
            SCRIPT_CACHE_MISSES_METRIC,
            "Script parses that tokenized and parsed from scratch.",
        ).inc(misses)
        self.obs.counter(
            SCRIPT_CACHE_TIME_SAVED_METRIC,
            "Estimated clock units saved by compiled-script reuse.",
        ).inc(saved)


class CrawlStreamPlan(StreamPlan):
    """One crawl's opened run (see :class:`~repro.exec.StreamPlan`).

    Created by :meth:`AdbCrawler.stream_plan`: one shard per app, the
    baseline shell last. Visits, spans, transcripts and per-visit
    metrics merge in exact shard order as outcomes stream in. A shard
    lost to repeated worker death leaves its app with no visits — the
    shape a crawl that never selected the app would produce.
    """

    name = "crawl"
    root = "crawl"

    def __init__(self, crawler, progress=None):
        self.crawler = crawler
        self.visits = []
        self.baseline_visits = []
        super().__init__(crawler, sinks=progress, apps=len(crawler.apps),
                         sites=len(crawler.sites))

    def prepare(self):
        self.apps = list(self.crawler.apps)
        if self.crawler.include_baseline:
            # The baseline shell is crawled once, as one ordinary shard;
            # differencing happens in CrawlResult, so no shard needs its
            # results in flight.
            self.apps.append(SYSTEM_WEBVIEW_SHELL)
        shards = [CrawlShard(position, app)
                  for position, app in enumerate(self.apps)]
        return shards, []

    def task_fn(self):
        return self.crawler._shard_fn()

    def merge(self, outcome):
        self.crawler._merge_shard(self.apps[outcome.position], outcome,
                                  self.visits, self.baseline_visits)

    def lost(self, shard, message):
        return ShardOutcome(shard.position, shard.app.package)

    def build_result(self):
        crawler = self.crawler
        crawler._record_script_metrics(self.outcomes)
        crawler.log.info("crawl_complete", visits=len(self.visits),
                         baseline_visits=len(self.baseline_visits),
                         workers=self.config.max_workers)
        return CrawlResult(self.visits, self.baseline_visits)
