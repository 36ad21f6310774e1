"""bench_e2e workload bodies: the paper pipeline through its public APIs.

Each workload runs in a child interpreter that ``run.py`` starts with a
clean environment (no ``REPRO_*`` variables), so a cold repetition is
really cold and no CI setting changes what is measured. The child reads
one JSON spec from ``argv[1]``, runs, and prints one JSON result as the
last line of its standard output. A correctness failure raises
:class:`GateError`; the child then exits non-zero and prints no result.

The studies receive only ``max_workers``, the backend and an
``Obs(clock=time.perf_counter)``, so simulated schedule figures are in
seconds; every other setting stays at the library default. Sizes arrive
as arguments (``run.py`` holds the benchmark's sizes, the self-test
passes tiny ones).
"""

import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

from repro.core import DynamicStudy, StaticStudy
from repro.corpus import CorpusConfig, evolve_corpus, generate_corpus
from repro.dynamic.manual_study import ManualStudy
from repro.endpoints import EndpointCensus, cross_validate
from repro.exec import AnalysisCache, ExecConfig
from repro.impact import ImpactCensus
from repro.longitudinal import IncrementalRunner, RunStore
from repro.obs import (
    EXEC_CACHE_HITS_METRIC,
    EXEC_CACHE_MISSES_METRIC,
    EXEC_CHUNKS_REPAIRED_METRIC,
    EXEC_CLASS_CACHE_HITS_METRIC,
    EXEC_CLASS_CACHE_MISSES_METRIC,
    EXEC_CRITICAL_PATH_METRIC,
    EXEC_STEALS_METRIC,
    EXEC_TASKS_QUARANTINED_METRIC,
    EXEC_WORKER_BUSY_METRIC,
    ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
    ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC,
    Obs,
    SCRIPT_CACHE_HITS_METRIC,
    SCRIPT_CACHE_MISSES_METRIC,
)
from repro.results import ResultsService, ResultsStore
from repro.static_analysis.export import export_study_json
from repro.static_analysis.nutrition import build_label
from repro.static_analysis.report import Aggregator

import trace

#: The studies in pipeline order; also the ``exec.<study>.*`` names.
STUDIES = ("static", "crawl", "impact", "endpoints")

#: Quarterly follow-ups after the 2023-01-13 base snapshot.
FOLLOW_UP_DATES = ("2023-04-13", "2023-07-13", "2023-10-13", "2024-01-13")


class GateError(Exception):
    """A correctness gate failed; the run reports no numbers."""


def gate(condition, message):
    if not condition:
        raise GateError(message)


clock = time.perf_counter


def peak_rss_mb():
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    """User + system CPU seconds of this process and its reaped children
    (pool workers are reaped when their pool shuts down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class WorkerMemory:
    """Samples the peak RSS (``VmHWM``) of this process's children.

    Pool workers are children of the process running the study; a thread
    reads their high-water marks from ``/proc`` every ``interval``
    seconds while the block runs.
    """

    def __init__(self, interval=0.2):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="bench-e2e-memory")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)

    def _sample(self):
        while not self._stop.wait(self.interval):
            for pid in _child_pids():
                try:
                    with open("/proc/%s/status" % pid) as handle:
                        for line in handle:
                            if line.startswith("VmHWM:"):
                                self.peak_mb = max(self.peak_mb,
                                                   int(line.split()[1]) / 1024)
                except OSError:
                    pass  # the child exited between listing and reading


def _child_pids():
    pids = set()
    tasks = "/proc/self/task"
    for task in os.listdir(tasks):
        try:
            with open(os.path.join(tasks, task, "children")) as handle:
                pids.update(handle.read().split())
        except OSError:
            pass
    return pids


def digest(value):
    """SHA-256 of a value's canonical JSON form."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


class TimedStore(ResultsStore):
    """A results store that records how long each ingest took.

    Every ingest must land: a ``None`` return (the store's swallowed
    write failure) fails the run.
    """

    def __init__(self, path):
        super().__init__(path)
        #: ``(kind, seconds)`` per ingest call, in call order.
        self.ingests = []

    def _timed(self, kind, method, *args, **kwargs):
        started = clock()
        ingest_id = method(*args, **kwargs)
        self.ingests.append((kind, clock() - started))
        gate(ingest_id is not None, "%s ingest returned None" % kind)
        return ingest_id

    def ingest(self, result, **kwargs):
        return self._timed("study", super().ingest, result, **kwargs)

    def ingest_webapi(self, measurements, **kwargs):
        return self._timed("webapi", super().ingest_webapi, measurements,
                           **kwargs)

    def ingest_impact(self, result, **kwargs):
        return self._timed("impact", super().ingest_impact, result,
                           **kwargs)

    def ingest_endpoints(self, result, validation=None, **kwargs):
        return self._timed("endpoints", super().ingest_endpoints, result,
                           validation, **kwargs)


# -- the paper pipeline -------------------------------------------------------


def make_corpus(seed, universe):
    return generate_corpus(CorpusConfig(universe_size=universe, seed=seed),
                           obs=Obs(clock=clock))


class Pipeline:
    """One run of the four studies, every result ingested into ``store``."""

    def __init__(self, corpus, seed, workers, sizes, store):
        self.corpus = corpus
        self.seed = seed
        self.workers = workers
        self.backend = "process" if workers > 1 else "inline"
        self.sizes = sizes
        self.store = store
        self.stage_s = {}
        self.obs = {study: Obs(clock=clock) for study in STUDIES}

    def _exec_config(self, chunk_size=None):
        return ExecConfig(max_workers=self.workers, backend=self.backend,
                          chunk_size=chunk_size)

    def run(self):
        started = clock()
        study = StaticStudy(corpus=self.corpus, obs=self.obs["static"],
                            max_workers=self.workers,
                            exec_backend=self.backend,
                            results_store=self.store)
        self.static = study.run(max_apps=self.sizes["static_apps"])
        mark = clock()
        self.stage_s["static"] = mark - started

        dynamic = DynamicStudy(seed=self.seed,
                               site_count=self.sizes["sites"],
                               obs=self.obs["crawl"],
                               max_workers=self.workers,
                               exec_backend=self.backend,
                               results_store=self.store)
        self.crawl = dynamic.crawl_top_sites()
        self.dynamic = dynamic
        self.stage_s["crawl"], mark = clock() - mark, clock()

        census = ImpactCensus(
            apps=ManualStudy(seed=self.seed).apps()[:self.sizes["impact_apps"]],
            seed=self.seed, obs=self.obs["impact"])
        # Keep the census's own default chunk size; set only the workers.
        census.exec_config = self._exec_config(census.exec_config.chunk_size)
        self.impact = census.run()
        self.store.ingest_impact(self.impact, **self.keys())
        self.stage_s["impact"], mark = clock() - mark, clock()

        endpoints = EndpointCensus(
            self.corpus,
            apps=self.corpus.selected_specs()[:self.sizes["endpoint_apps"]],
            obs=self.obs["endpoints"], exec_config=self._exec_config(),
        )
        self.endpoints = endpoints.run()
        self.validation = cross_validate(self.endpoints, endpoints)
        self.store.ingest_endpoints(self.endpoints, self.validation,
                                    **self.keys())
        self.stage_s["endpoints"] = clock() - mark
        self.batch_s = clock() - started
        return self

    def keys(self):
        """The ingest keys of this run's results."""
        return dict(corpus=self.corpus.fingerprint(), options="",
                    snapshot=str(self.corpus.config.snapshot_date))

    def counts(self):
        return {
            "static": self.static.analyzed + self.static.broken,
            "crawl": len(self.crawl.visits),
            "impact": len(self.impact.records),
            "endpoints": len(self.endpoints.apps),
        }

    def digests(self):
        """Canonical digests of the four paper-facing outputs."""
        return {
            "static": digest(export_study_json(self.static)),
            "crawl": digest([[v.app.name, v.site.host, list(v.endpoints)]
                             for v in self.crawl.visits]),
            "impact": digest(bridge_rows(self.impact)),
            "endpoints": digest([
                [a.package, [[r.url, r.partial, r.cleartext, r.credentials,
                              r.host, r.registrable_domain, r.owner_class,
                              r.sdk] for r in a.records]]
                for a in self.endpoints.apps
            ]),
        }

    def exec_figures(self):
        """Measured vs simulated execution, per study, from the registries.

        ``measured_s`` is the study's ``execute`` span (the pool's wall
        clock); ``simulated_s`` the schedule simulator's makespan.
        """
        figures = {}
        for study in STUDIES:
            obs = self.obs[study]
            registry = obs.registry
            measured = sum(span.duration for span in _iter_spans(obs)
                           if span.name == "execute")
            simulated = registry.value(EXEC_CRITICAL_PATH_METRIC)
            figures[study] = {
                "measured_s": measured,
                "simulated_s": simulated,
                "gap_s": measured - simulated,
                "worker_busy_s": sum(
                    registry.label_values(EXEC_WORKER_BUSY_METRIC).values()
                ),
            }
        return figures

    def exec_counts(self):
        totals = {"steals": 0, "chunks_repaired": 0, "tasks_quarantined": 0}
        for obs in self.obs.values():
            registry = obs.registry
            totals["steals"] += registry.value(EXEC_STEALS_METRIC)
            totals["chunks_repaired"] += registry.value(
                EXEC_CHUNKS_REPAIRED_METRIC)
            totals["tasks_quarantined"] += registry.value(
                EXEC_TASKS_QUARANTINED_METRIC)
        return totals

    def cache_ratios(self):
        return {
            "class_hit_ratio": _ratio(self.obs["static"].registry,
                                      EXEC_CLASS_CACHE_HITS_METRIC,
                                      EXEC_CLASS_CACHE_MISSES_METRIC),
            "summary_hit_ratio": _ratio(
                self.obs["endpoints"].registry,
                ENDPOINTS_SUMMARY_CACHE_HITS_METRIC,
                ENDPOINTS_SUMMARY_CACHE_MISSES_METRIC),
            "script_cache_hit_ratio": _ratio(self.obs["crawl"].registry,
                                             SCRIPT_CACHE_HITS_METRIC,
                                             SCRIPT_CACHE_MISSES_METRIC),
            "outcome_hit_ratio": _ratio(self.obs["static"].registry,
                                        EXEC_CACHE_HITS_METRIC,
                                        EXEC_CACHE_MISSES_METRIC),
        }


def _iter_spans(obs):
    for root in obs.tracer.roots:
        yield from root.iter_spans()


def _ratio(registry, hits_metric, misses_metric):
    hits = registry.value(hits_metric)
    total = hits + registry.value(misses_metric)
    return hits / total if total else 0.0


def bridge_rows(impact):
    """The served ``bridge_findings`` row shape, from the live result."""
    return [
        [f.app, f.sdk, f.bridge, f.attacker, f.severity, ",".join(f.readable),
         ",".join(f.invocable), f.flow_count, int(f.cleartext)]
        for f in impact.findings
    ]


# -- the paper-mix query set ---------------------------------------------------


def label_form(label):
    return None if label is None else (label.grade, label.disclosure_lines())


def paper_mix(service, expected, packages, apps):
    """The served paper-mix, as ``(name, thunk)`` pairs.

    A query is in the mix when ``expected`` holds its in-memory answer,
    so a database with static ingests only gets the static queries.
    """
    whole = {
        "sdk_league:webview": [
            functools.partial(service.sdk_league, mechanism="webview")],
        "sdk_league:customtabs": [
            functools.partial(service.sdk_league, mechanism="customtabs")],
        "adoption_trend": [service.adoption_trend],
        "funnel": [service.funnel],
        "endpoint_census": [service.endpoint_census],
        "capability_ranking": [service.capability_ranking],
        "bridge_findings": [service.bridge_findings],
        "static_sdk_census": [service.static_sdk_census],
        "validation": [service.validation],
        "webapi_usage": [service.webapi_usage],
        "nutrition_label": [functools.partial(service.nutrition_label, p)
                            for p in packages],
        "endpoint_summary": [functools.partial(service.endpoint_summary, a)
                             for a in apps],
    }
    return [(name, thunk) for name, thunks in whole.items()
            if name in expected for thunk in thunks]


def mix_inputs(static, crawl, label_count):
    packages = [a.package for a in static.successful()[:label_count]]
    apps = sorted({v.app.name for v in crawl.visits}) if crawl else []
    return packages, apps


def static_expectations(result, trend_points):
    """In-memory answers for the static queries (bench_serving's checks)."""
    aggregator = Aggregator(result)
    labels = {
        analysis.package: label_form(build_label(
            analysis, analysis.label_sdks(result.labeler)))
        for analysis in result.successful()
    }
    total = result.analyzed or 1

    def trend_ok(trend):
        last = trend[-1] if trend else {}
        return (len(trend) >= trend_points
                and last.get("analyzed") == result.analyzed
                and last.get("webview_share")
                == 100.0 * len(result.webview_apps()) / total)

    return {
        "sdk_league:webview": sorted(aggregator.sdk_webview_apps.items(),
                                     key=lambda kv: (-kv[1], kv[0])),
        "sdk_league:customtabs": sorted(aggregator.sdk_ct_apps.items(),
                                        key=lambda kv: (-kv[1], kv[0])),
        "funnel": result.funnel_dict(),
        "adoption_trend": trend_ok,
        "nutrition_label": labels,
    }


def pipeline_expectations(run, measurements=None):
    """In-memory answers for the paper-mix of one pipeline run.

    ``measurements`` (the IAB harness output) adds the Web-API query.
    """
    expected = static_expectations(run.static, 1)
    if measurements is not None:
        webapi = expected["webapi_usage"] = []
        for name in sorted(measurements):
            counts = {}
            for pair in measurements[name].webapi_pairs:
                counts[pair] = counts.get(pair, 0) + 1
            for (interface, method), calls in sorted(counts.items()):
                webapi.append((name, interface, method, calls))
    visit_hosts = sum(len(v.hosts()) for v in run.crawl.visits)
    expected.update({
        # No in-memory reduction keys the census by registrable domain;
        # its rows must account for every (visit, host) pair.
        "endpoint_census": lambda rows: sum(r[3] for r in rows)
        == visit_hosts,
        "capability_ranking": run.impact.sdk_capability_ranking(),
        "bridge_findings": [tuple(row) for row in bridge_rows(run.impact)],
        "static_sdk_census": lambda rows: dict(rows)
        == run.endpoints.sdk_census(),
        "validation": run.validation.as_rows(),
        "endpoint_summary": {
            name: run.crawl.endpoint_summary(name)
            for name in {v.app.name for v in run.crawl.visits}
        },
    })
    return expected


def check_answer(expected, name, thunk, answer):
    """Gate one served answer against its in-memory counterpart."""
    want = expected[name]
    if name == "nutrition_label":
        package = thunk.args[0]
        gate(label_form(answer) == want.get(package),
             "served nutrition label for %s differs" % package)
    elif name == "endpoint_summary":
        app = thunk.args[0]
        gate(answer == want[app], "served endpoint summary for %s differs"
             % app)
    elif callable(want):
        gate(want(answer), "served %s fails its in-memory check" % name)
    else:
        gate(answer == want, "served %s differs from memory" % name)


def timed_rounds(mix, rounds, expected=None):
    """Closed-loop rounds over the mix; returns per-query latencies (s).

    The first round's answers are gated against ``expected``.
    """
    latencies = []
    for round_index in range(rounds):
        for name, thunk in mix:
            started = clock()
            answer = thunk()
            latencies.append(clock() - started)
            if expected is not None and round_index == 0:
                check_answer(expected, name, thunk, answer)
    return latencies




# -- tracing ------------------------------------------------------------------


class Untraced:
    """The recorder stand-in of an untraced run."""

    def resume(self):
        pass

    def pause(self):
        pass


UNTRACED = Untraced()


def start_trace(spec):
    """Install the wrappers; returns ``(recorder, finish)``.

    ``finish()`` removes the wrappers, writes the trace file and returns
    the recorder's summary.
    """
    recorder = trace.Recorder(clock=clock)
    uninstall = trace.install(recorder)

    def finish():
        uninstall()
        recorder.dump(spec["trace_path"], workload=spec["workload"],
                      seed=spec["seed"])
        return recorder.summary()

    return recorder, finish


# -- workload: paper-cold (one repetition per child) --------------------------


def paper_cold(spec):
    """One fresh-interpreter repetition of the whole pipeline.

    Set-up ends with the generated corpus and starts with the process
    (wall clock from the parent's spawn, CPU from the process's own
    start), so it includes interpreter start-up and imports.
    """
    sizes = spec["sizes"]
    seed = spec["seed"]
    recorder, finish = (start_trace(spec) if spec.get("trace_path")
                        else (UNTRACED, None))
    recorder.resume()
    corpus = make_corpus(seed, sizes["universe"])
    store = TimedStore(os.path.join(tempfile.mkdtemp(dir=spec["workdir"]),
                                    "results.db"))
    setup_s = time.time() - spec["spawned_at"]
    setup_cpu_s = cpu_seconds()
    memory = WorkerMemory() if spec["workers"] > 1 else None
    with memory or contextlib.nullcontext():
        run = Pipeline(corpus, seed, spec["workers"], sizes, store).run()
    recorder.pause()

    out = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
           "batch_s": run.batch_s,
           "batch_cpu_s": cpu_seconds() - setup_cpu_s}
    if finish is not None:
        out["trace"] = finish()
    packages, apps = mix_inputs(run.static, run.crawl, sizes["label_queries"])
    expected = pipeline_expectations(run)
    # cache_size=0 retains nothing: every query runs the SQL path.
    service = ResultsService(store, cache_size=0)
    out["query_s"] = timed_rounds(
        paper_mix(service, expected, packages, apps), sizes["query_rounds"],
        expected)
    counts = run.counts()
    out.update({
        "stage_s": run.stage_s,
        "counts": counts,
        "ingest_s": [seconds for _, seconds in store.ingests],
        "digests": run.digests(),
        "exec": run.exec_figures(),
        "exec_counts": run.exec_counts(),
        "caches": run.cache_ratios(),
        "rss_mb": peak_rss_mb(),
        "worker_rss_mb": memory.peak_mb if memory else 0.0,
        "attempted": sum(counts.values()) + len(store.ingests)
        + len(out["query_s"]),
    })
    gate(out["exec_counts"]["tasks_quarantined"] == 0,
         "tasks quarantined as worker_lost")
    return out


# -- workload: longitudinal-delta ---------------------------------------------


def make_timeline(seed, universe):
    corpus = generate_corpus(CorpusConfig(universe_size=universe, seed=seed),
                             obs=Obs())
    return evolve_corpus(corpus, FOLLOW_UP_DATES)


def timeline_seed(seed, index):
    """Corpus seed of a run's ``index``-th timeline; the first is ``seed``."""
    return seed + index * 1_000_003


def longitudinal_iteration(seed, sizes, workdir, recorder=UNTRACED,
                           queries=True):
    """Set up a cold base snapshot, then time the four follow-ups.

    Each follow-up runs in a fresh :class:`IncrementalRunner` over a
    fresh :class:`RunStore` instance and an empty class cache, so carried
    outcomes are read back from disk, as they would be in a new process.
    Only the set-up and the follow-up runs are traced. With ``queries``,
    the static paper-mix is served and gated after each follow-up.
    """
    recorder.resume()
    started, cpu_from = clock(), time.process_time()
    timeline = make_timeline(seed, sizes["universe"])
    store_dir = os.path.join(workdir, "runstore")
    results = TimedStore(os.path.join(workdir, "results.db"))
    # Every snapshot analyses the first max_apps selected apps, so a
    # follow-up's work does not grow or shrink with the seed's selection.
    max_apps = sizes["max_apps"]
    IncrementalRunner(timeline.corpus, run_store=RunStore(store_dir),
                      obs=Obs(clock=clock), results_store=results,
                      ).run_snapshot(timeline.corpus.config.snapshot_date,
                                     max_apps=max_apps)
    setup_s = clock() - started
    setup_cpu_s = time.process_time() - cpu_from

    snapshot_s, snapshot_cpu_s, query_s, digests = [], [], [], []
    obs = Obs(clock=clock)
    for position, date in enumerate(FOLLOW_UP_DATES):
        timeline.corpus.analysis_cache = AnalysisCache()
        runner = IncrementalRunner(timeline.corpus,
                                   run_store=RunStore(store_dir), obs=obs,
                                   results_store=results)
        started, cpu_from = clock(), time.process_time()
        run = runner.run_snapshot(date, max_apps=max_apps)
        snapshot_s.append(clock() - started)
        snapshot_cpu_s.append(time.process_time() - cpu_from)
        recorder.pause()
        gate(run.mode == "delta" and 0 < run.fresh < run.planned,
             "follow-up %s did not run as a delta (%r)" % (date, run))
        digests.append(digest(export_study_json(run.result)))
        if queries:
            packages, _ = mix_inputs(run.result, None,
                                     sizes["label_queries"])
            expected = static_expectations(run.result, position + 2)
            service = ResultsService(results, cache_size=0)
            query_s += timed_rounds(
                paper_mix(service, expected, packages, []),
                sizes["query_rounds"], expected)
        recorder.resume()
    recorder.pause()
    return {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "snapshot_s": snapshot_s,
        "snapshot_cpu_s": snapshot_cpu_s,
        "query_s": query_s,
        "ingest_s": [seconds for _, seconds in results.ingests[1:]],
        "digests": digests,
        "caches": {
            "outcome_hit_ratio": _ratio(obs.registry, EXEC_CACHE_HITS_METRIC,
                                        EXEC_CACHE_MISSES_METRIC),
            "class_hit_ratio": _ratio(obs.registry,
                                      EXEC_CLASS_CACHE_HITS_METRIC,
                                      EXEC_CLASS_CACHE_MISSES_METRIC),
        },
        "attempted": 2 * len(FOLLOW_UP_DATES) + len(query_s),
    }


def longitudinal(spec):
    """Iterations while they fit in ``seconds`` (at least ``min_units``).

    Iteration *i* regenerates timeline ``i % timelines``, so one run's
    median spans several seeds' apps rather than one seed's draw, and a
    regenerated timeline must reproduce its first iteration's follow-up
    results. A traced spec adds one traced iteration of the first
    timeline. Only the first iteration serves and gates the queries, so
    the others spend their time on follow-ups.
    """
    sizes = spec["sizes"]

    def iteration(index, recorder=UNTRACED):
        workdir = tempfile.mkdtemp(dir=spec["workdir"])
        seed = timeline_seed(spec["seed"], index % sizes["timelines"])
        try:
            return longitudinal_iteration(seed, sizes, workdir, recorder,
                                          queries=index == 0)
        finally:
            shutil.rmtree(workdir)

    iterations, durations = [], []
    started = clock()
    while (len(iterations) < spec["min_units"] or clock() - started
           + statistics.median(durations) <= spec["seconds"]):
        began = clock()
        iterations.append(iteration(len(iterations)))
        durations.append(clock() - began)
    out = {"iterations": iterations}
    checked = list(enumerate(iterations))
    if spec.get("trace_path"):
        recorder, finish = start_trace(spec)
        out["traced"] = iteration(sizes["timelines"], recorder)
        out["trace"] = finish()
        checked.append((sizes["timelines"], out["traced"]))
    for index, other in checked:
        first = iterations[index % sizes["timelines"]]
        gate(other["digests"] == first["digests"],
             "follow-up results differ between identical timelines")
    out["rss_mb"] = peak_rss_mb()
    return out


# -- workload: serve ----------------------------------------------------------


def serve_setup(run, measurements, path, mix_for):
    """Load every result into a fresh database and prime the cache.

    Returns ``(store, service, mix, set-up seconds, set-up CPU
    seconds)``; ``mix_for`` maps a service to its paper-mix.
    """
    started, cpu_from = clock(), time.thread_time()
    store = TimedStore(path)
    keys = run.keys()
    store.ingest(run.static, **keys)
    store.ingest(run.crawl, **keys)
    store.ingest_webapi(measurements, **keys)
    store.ingest_impact(run.impact, **keys)
    store.ingest_endpoints(run.endpoints, run.validation, **keys)
    service = ResultsService(store)
    mix = mix_for(service)
    for _, thunk in mix:
        thunk()
    return (store, service, mix, clock() - started,
            time.thread_time() - cpu_from)


def batch_phase(store, mix_for, expected, seconds):
    """Whole passes over the paper-mix on a cache-bypassing service.

    Every query runs the SQL path and its Python-side reduction, so a
    pass is the serving layer's compute rather than SQLite connection
    churn alone. The first pass's answers are gated. Returns each pass's
    wall and CPU seconds.
    """
    pass_s, pass_cpu_s = [], []
    deadline = clock() + seconds
    while not pass_s or clock() < deadline:
        # cache_size=0 retains nothing: every query runs the SQL path.
        mix = mix_for(ResultsService(store, cache_size=0))
        began, cpu_from = clock(), time.thread_time()
        answers = [thunk() for _, thunk in mix]
        pass_cpu_s.append(time.thread_time() - cpu_from)
        pass_s.append(clock() - began)
        if len(pass_s) == 1:
            for (name, thunk), answer in zip(mix, answers):
                check_answer(expected, name, thunk, answer)
    return pass_s, pass_cpu_s


def read_phase(mix, seconds):
    """One closed-loop client cycling the mix against a warm cache.

    Returns the per-query latencies.
    """
    latencies = []
    deadline = clock() + seconds
    while clock() < deadline:
        for _, thunk in mix:
            started = clock()
            thunk()
            latencies.append(clock() - started)
    return latencies


def read_ingest_phase(run, store, service, mix, expected, seconds, rate,
                      label):
    """A closed-loop reader beside an open-loop writer.

    The writer ingests the static result under a new snapshot label
    ``rate`` times a second, each ingest timed from its scheduled send
    time. A trend query that starts after *k* ingests returned must see
    at least *k* more snapshots than before the phase. Each query is a
    cache hit or miss by the service's own counters.
    """
    keys = run.keys()
    baseline = len(dict(mix)["adoption_trend"]())
    writes = []  # (scheduled, began, finished)
    failures = []
    stop = threading.Event()
    origin = clock()

    def writer():
        k = 0
        while not stop.is_set():
            scheduled = origin + k / rate
            delay = scheduled - clock()
            if delay > 0 and stop.wait(delay):
                break
            began = clock()
            try:
                store.ingest(run.static, corpus=keys["corpus"],
                             options=keys["options"],
                             snapshot="%s-%04d" % (label, k))
            except Exception:  # reported by the reader once joined
                failures.append(traceback.format_exc())
                return
            writes.append((scheduled, began, clock()))
            k += 1

    thread = threading.Thread(target=writer, name="bench-e2e-writer")
    thread.start()
    latencies, hit_s, miss_s, trend_reads, checked = [], [], [], [], {}
    try:
        deadline = origin + seconds
        while clock() < deadline:
            for index, (name, thunk) in enumerate(mix):
                misses = service.misses
                started = clock()
                answer = thunk()
                elapsed = clock() - started
                latencies.append(elapsed)
                (miss_s if service.misses != misses else hit_s).append(
                    elapsed)
                if name == "adoption_trend":
                    trend_reads.append((started, len(answer)))
                elif checked.get(index) is not answer:
                    check_answer(expected, name, thunk, answer)
                    checked[index] = answer
    finally:
        stop.set()
        thread.join(timeout=60)
    gate(not thread.is_alive(), "writer thread did not stop")
    gate(not failures, "; ".join(failures))
    finished = sorted(done for _, _, done in writes)
    for started, points in trend_reads:
        landed = sum(1 for done in finished if done <= started)
        gate(points >= baseline + landed,
             "trend query saw %d snapshots; %d before the phase and %d "
             "ingests since" % (points, baseline, landed))
    return {
        "mixed_s": latencies,
        "hit_s": hit_s,
        "miss_s": miss_s,
        "ingest_s": [done - scheduled for scheduled, _, done in writes],
        "ingest_lag_s": [began - scheduled for scheduled, began, _ in writes],
    }


def serve_phases(run, store, service, mix_for, expected, seconds, rate,
                 label):
    """The ``batch``, ``read`` and ``read-ingest`` phases, in turn.

    ``service`` is warm and ``mix_for(service)`` its paper-mix.
    """
    batch_s = seconds * run.sizes["batch_share"]
    read_s = seconds * run.sizes["read_share"]
    pass_s, pass_cpu_s = batch_phase(store, mix_for, expected, batch_s)
    mix = mix_for(service)
    latencies = read_phase(mix, read_s)
    out = read_ingest_phase(run, store, service, mix, expected,
                            seconds - batch_s - read_s, rate, label)
    out.update({
        "read_s": latencies,
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "attempted": len(pass_s) * len(mix) + len(latencies)
        + len(out["mixed_s"]) + len(out["ingest_s"]),
    })
    return out


def serve(spec):
    """Serve the paper-mix from a database the pipeline filled.

    The pipeline run makes the inputs; set-up is loading them into a
    fresh database and priming the cache, done ``setups`` times.
    """
    sizes = spec["sizes"]
    seed = spec["seed"]
    workdir = spec["workdir"]
    run = Pipeline(make_corpus(seed, sizes["universe"]), seed, 1, sizes,
                   TimedStore(os.path.join(workdir, "inputs.db"))).run()
    measurements = run.dynamic.measure_iabs()
    packages, apps = mix_inputs(run.static, run.crawl, sizes["label_queries"])
    expected = pipeline_expectations(run, measurements)

    def mix_for(service):
        return paper_mix(service, expected, packages, apps)

    setups, setups_cpu = [], []
    for attempt in range(spec["setups"]):
        store, service, mix, setup_s, setup_cpu_s = serve_setup(
            run, measurements,
            os.path.join(workdir, "serve-%d.db" % attempt), mix_for)
        setups.append(setup_s)
        setups_cpu.append(setup_cpu_s)
        for name, thunk in mix:
            check_answer(expected, name, thunk, thunk())

    rate = sizes["ingest_rate"]
    out = serve_phases(run, store, service, mix_for, expected,
                       spec["seconds"], rate, "serve")
    out["setup_s"] = setups
    out["setup_cpu_s"] = setups_cpu
    if spec.get("trace_path"):
        recorder, finish = start_trace(spec)
        # A new service so every query goes through the wrapped methods.
        service = ResultsService(store)
        for _, thunk in mix_for(service):
            thunk()
        recorder.resume()
        out["traced"] = serve_phases(run, store, service, mix_for, expected,
                                     spec["seconds"], rate, "traced")
        recorder.pause()
        out["trace"] = finish()
    out["rss_mb"] = peak_rss_mb()
    return out


WORKLOADS = {
    "paper-cold": paper_cold,
    "longitudinal": longitudinal,
    "serve": serve,
}


def main(argv):
    spec = json.loads(argv[1])
    try:
        out = WORKLOADS[spec["kind"]](spec)
    except GateError as exc:
        print("bench_e2e: correctness gate failed: %s" % exc,
              file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
