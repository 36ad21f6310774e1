"""Study orchestration: one-call access to every paper artifact."""

from repro.corpus.config import CorpusConfig
from repro.corpus.generator import generate_corpus
from repro.dynamic.apps import webview_iab_profiles
from repro.dynamic.crawler import AdbCrawler, DEFAULT_CRAWL_CHUNK_SIZE
from repro.dynamic.manual_study import ManualStudy
from repro.dynamic.measurements import IabMeasurementHarness
from repro.exec import ExecConfig, chain_results
from repro.obs import Obs
from repro.obs.progress import ProgressReporter, progress_enabled
from repro.reporting import Table
from repro.results.store import prepare_study_row, study_sinks
from repro.static_analysis.pipeline import (
    PipelineOptions,
    StaticAnalysisPipeline,
)
from repro.static_analysis import report as static_report
from repro.util import DEFAULT_SEED, fingerprint_token
from repro.web.sites import top_sites


def _default_progress(progress_hook, label):
    """An env-enabled reporter when the caller did not supply a hook."""
    if progress_hook is not None:
        return progress_hook
    if progress_enabled():
        return ProgressReporter(label=label)
    return None


class StaticStudy:
    """The ~146.5K-app static measurement study, at configurable scale.

    ``max_workers`` / ``chunk_size`` / ``exec_backend`` shard the per-app
    analysis over the :mod:`repro.exec` streaming scheduler; left at
    None, the worker count falls back to ``REPRO_MAX_WORKERS`` and the
    chunk size and backend to their defaults (8 tasks, ``auto``).
    Results are byte-identical for any worker count and backend (see
    DESIGN.md §Execution).
    """

    def __init__(self, universe_size=20_000, seed=DEFAULT_SEED, corpus=None,
                 options=None, obs=None, max_workers=None, chunk_size=None,
                 exec_backend=None, telemetry=None, results_store=None,
                 progress_hook=None):
        #: Per-study observability bundle (registry + tracer + clock).
        self.obs = obs if obs is not None else Obs()
        if corpus is None:
            corpus = generate_corpus(
                CorpusConfig(universe_size=universe_size, seed=seed),
                obs=self.obs,
            )
        self.corpus = corpus
        self.options = options or PipelineOptions()
        self.exec_config = ExecConfig(max_workers=max_workers,
                                      chunk_size=chunk_size,
                                      backend=exec_backend)
        #: Run-history and queryable results sinks; each defaults to the
        #: ``REPRO_RESULTS_DB`` store.
        self.telemetry, self.results_store = study_sinks(telemetry,
                                                         results_store)
        self.progress_hook = _default_progress(progress_hook, "static")
        self.pipeline = StaticAnalysisPipeline(
            corpus, options=self.options, obs=self.obs,
            exec_config=self.exec_config,
            progress_hook=self.progress_hook,
        )
        self.result = None
        self._aggregator = None

    def run(self, max_apps=None, progress=None):
        """Run the pipeline; memoizes the result and persists telemetry."""
        plan = self.stream_plan(max_apps=max_apps, progress=progress)
        self.result = plan.run()
        self._aggregator = None
        if self.telemetry is not None:
            self.telemetry.record_run(
                self.obs, "static",
                corpus=self.corpus.fingerprint(),
                options=fingerprint_token(self.options.cache_key()),
                items=self.result.analyzed, root_span="run",
            )
        if self.results_store is not None:
            self.results_store.ingest(
                self.result,
                corpus=self.corpus.fingerprint(),
                options=fingerprint_token(self.options.cache_key()),
                snapshot=str(self.corpus.config.snapshot_date),
                prepared=plan.prepared,
            )
        return self.result

    def stream_plan(self, max_apps=None, progress=None):
        """Open a run whose ingest rows prepare incrementally.

        With a results store, an extra ordered consumer on top of the
        pipeline's own plan SDK-labels each successful outcome as it
        lands, so at finalize the results-DB ingest only writes rows
        (cache-served apps bypass the stage and are prepared inside the
        ingest instead).
        """
        plan = self.pipeline.stream_plan(max_apps=max_apps,
                                         progress=progress)
        plan.prepared = None
        if self.results_store is not None:
            prepared = plan.prepared = {}
            labeler = self.pipeline.labeler

            def prepare(index, outcome):
                if outcome.error is None:
                    prepared[outcome.package] = prepare_study_row(
                        outcome.analysis, labeler
                    )

            plan.stage.consume_ordered(prepare)
        return plan

    @property
    def aggregator(self):
        if self.result is None:
            self.run()
        if self._aggregator is None:
            with self.obs.activate():
                self._aggregator = static_report.Aggregator(self.result)
        return self._aggregator

    def run_report(self):
        """Pipeline-health markdown: throughput, drops, stage time shares."""
        if self.result is None:
            self.run()
        return self.obs.run_report(
            "Static study run report", items_label="apps",
            items_count=self.result.analyzed, root_span="run",
        )

    # -- paper artifacts ----------------------------------------------------

    def table2(self):
        if self.result is None:
            self.run()
        return static_report.table2(self.result)

    def table3(self):
        return static_report.table3(self.aggregator)

    def table4(self, top_n=5):
        return static_report.table4(self.aggregator, top_n)

    def table5(self, top_n=3):
        return static_report.table5(self.aggregator, top_n)

    def table7(self):
        return static_report.table7(self.aggregator)

    def figure3(self, top_n=10):
        return static_report.figure3(self.aggregator, top_n)

    def figure4(self):
        return static_report.figure4(self.aggregator)

    def usage_shares(self):
        """(webview %, ct %, both %) of analyzed apps — the headline."""
        aggregator = self.aggregator
        total = self.result.analyzed or 1
        return (
            100.0 * aggregator.webview_apps / total,
            100.0 * aggregator.ct_apps / total,
            100.0 * aggregator.both_apps / total,
        )


class DynamicStudy:
    """The top-1K semi-manual dynamic study.

    Like :class:`StaticStudy`, ``max_workers`` / ``chunk_size`` /
    ``exec_backend`` shard the crawl (per app) over the :mod:`repro.exec`
    streaming scheduler; left at None, the worker count falls back to
    ``REPRO_MAX_WORKERS`` and the chunk size to one app per dispatch,
    and ``REPRO_CACHE`` switches the parsed-script cache. Crawl results
    and metrics are byte-identical for any worker count and cache
    setting (see DESIGN.md §Dynamic throughput).
    """

    def __init__(self, seed=DEFAULT_SEED, site_count=100, total_apps=1000,
                 obs=None, max_workers=None, chunk_size=None,
                 exec_backend=None, telemetry=None, results_store=None,
                 progress_hook=None):
        self.seed = seed
        self.obs = obs if obs is not None else Obs()
        #: Run-history and queryable results sinks; each defaults to the
        #: ``REPRO_RESULTS_DB`` store.
        self.telemetry, self.results_store = study_sinks(telemetry,
                                                         results_store)
        self.progress_hook = _default_progress(progress_hook, "crawl")
        self.sites = top_sites(site_count)
        self.manual_study = ManualStudy(total_apps=total_apps, seed=seed)
        self.harness = IabMeasurementHarness(seed=seed)
        if chunk_size is None:
            chunk_size = DEFAULT_CRAWL_CHUNK_SIZE
        self.exec_config = ExecConfig(max_workers=max_workers,
                                      chunk_size=chunk_size,
                                      backend=exec_backend)
        self._classifications = None
        self._measurements = None
        self._crawl = None

    # -- Table 6 ------------------------------------------------------------

    def classify_top_apps(self):
        if self._classifications is None:
            self._classifications = self.manual_study.run()
        return self._classifications

    def table6(self):
        tally = ManualStudy.tally(self.classify_top_apps())
        table = Table(
            ["Classification of apps", "#apps"],
            title="Table 6: Hyperlink clicking behavior in the top 1K apps",
        )
        for label, count in tally.items():
            table.add_row(label, count)
        return table

    # -- Table 8 / Table 9 --------------------------------------------------------

    def measure_iabs(self):
        if self._measurements is None:
            self._measurements = self.harness.run()
            if self.results_store is not None:
                self.results_store.ingest_webapi(
                    self._measurements,
                    corpus=fingerprint_token(("iab", self.seed)),
                    options="",
                    snapshot="seed-%d" % self.seed,
                )
        return self._measurements

    def table8(self):
        measurements = self.measure_iabs()
        ordered = sorted(
            measurements.values(), key=lambda m: -m.app.downloads
        )
        table = Table(
            ["Downloads", "App", "Via", "HTML/JS Injected",
             "JS Bridge Injected"],
            title="Table 8: WebView injection and inferred intents",
        )
        for measurement in ordered:
            table.add_row(
                _abbrev(measurement.app.downloads),
                measurement.app.name,
                measurement.app.surface,
                " ".join(measurement.inferred_script_intents()),
                " ".join(measurement.inferred_bridge_intents()),
            )
        return table

    def table9(self):
        measurements = self.measure_iabs()
        table = Table(
            ["App", "Interface", "Method"],
            title="Table 9: Web APIs accessed, per controlled-page server log",
        )
        for name in sorted(measurements):
            measurement = measurements[name]
            grouped = {}
            for interface, method in measurement.webapi_pairs:
                grouped.setdefault(interface, []).append(method)
            first = True
            for interface in sorted(grouped):
                for method in sorted(set(grouped[interface])):
                    table.add_row(name if first else "", interface, method)
                    first = False
        return table

    # -- Figure 6 -----------------------------------------------------------------

    def crawl_top_sites(self, apps=None, progress=None):
        """Crawl, memoize the crawl and persist telemetry + queryable rows."""
        if self._crawl is not None:
            return self._crawl
        if apps is None:
            apps = webview_iab_profiles()
        crawler = AdbCrawler(apps, sites=self.sites, seed=self.seed,
                             obs=self.obs, exec_config=self.exec_config)
        self._crawl = crawl = crawler.crawl(
            progress=chain_results(progress, self.progress_hook)
        )
        corpus = fingerprint_token(("crawl", self.seed, len(self.sites)))
        # The token keeps its original name so the keys of existing
        # ingests and runs still match.
        options = fingerprint_token(("script_cache", self.exec_config.cache))
        if self.telemetry is not None:
            self.telemetry.record_run(
                self.obs, "dynamic", corpus=corpus, options=options,
                items=len(crawl.visits), root_span="crawl",
            )
        if self.results_store is not None:
            self.results_store.ingest(
                crawl, corpus=corpus, options=options,
                snapshot="seed-%d" % self.seed,
            )
        return crawl

    def run_report(self):
        """Crawl-health markdown: visit throughput and stage time shares."""
        visits = len(self._crawl.visits) if self._crawl is not None else 0
        return self.obs.run_report(
            "Dynamic study run report", items_label="visits",
            items_count=visits, root_span="crawl",
        )

    def figure6(self, app_name):
        """Per-site-category mean distinct app-specific endpoints."""
        crawl = self.crawl_top_sites()
        return crawl.endpoint_summary(app_name)


def _abbrev(value):
    from repro.util import format_abbrev

    return format_abbrev(value)
