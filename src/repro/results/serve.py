"""Read-optimized serving layer over the results store.

:class:`ResultsService` answers the paper's questions — SDK league
tables, adoption trends, per-app nutrition labels, endpoint censuses —
from a :class:`~repro.results.store.ResultsStore` with prepared,
parameterized queries. Design points:

- **One reduction per answer.** Every served answer is asserted (in
  tests and in ``benchmarks/e2e``'s paper-mix gate) equal to the
  in-memory one. SQL only selects, filters and orders rows and runs
  exact integer ``COUNT``/``SUM``s; the rest is the reducer that the
  owning module's in-memory method calls (``share``, ``make_label``,
  ``endpoint_summary``, ``capability_ranking``, ``sdk_census``,
  ``validation_rows``), run over the stored rows.
- **Generation-keyed LRU cache.** Query answers are memoized under
  ``(store generation, query, args)``; any new ingest bumps the
  generation, implicitly invalidating every cached entry without a
  coordination channel between writers and readers.
- **One connection and one snapshot per query.** Each query runs in
  one :meth:`~repro.results.store.ResultsStore.reading` scope: its
  generation read, cache check and SQL share one SQLite connection and
  one read transaction (WAL readers never block the writer), closed
  when the query returns. The cache is guarded by a lock, so one
  service instance can be shared across reader threads — the serving
  benchmark drives it with N threads.

The module doubles as the ``python -m repro.results`` CLI, which also
lists the database's run history (``runs``), profiles one run (``run``)
and folds one into a flamegraph (``flamegraph``).
"""

import argparse
import collections
import json
import os
import sys
import threading

from repro.obs import perf
from repro.results.store import RESULTS_DB_ENV_VAR, ResultsStore

#: Default bound on memoized query answers.
DEFAULT_CACHE_SIZE = 256


class ResultsService:
    """Prepared queries + generation-keyed LRU cache over a store."""

    def __init__(self, store, cache_size=DEFAULT_CACHE_SIZE):
        self.store = store
        self.cache_size = cache_size
        self._cache = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- cache ---------------------------------------------------------------

    def _cached(self, key, compute):
        """Memoize ``compute()`` under ``(generation,) + key``.

        The generation read, the hit check and every statement of
        ``compute()`` share one read scope: one connection and one
        snapshot, so an answer cached under generation *g* is computed
        from exactly the data of generation *g*, even while an ingest
        lands. The lock covers only the cache dict.
        """
        with self.store.reading():
            full_key = (self.store.generation(),) + key
            with self._lock:
                if full_key in self._cache:
                    self._cache.move_to_end(full_key)
                    self.hits += 1
                    return self._cache[full_key]
            value = compute()
        with self._lock:
            self.misses += 1
            self._cache[full_key] = value
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return value

    # -- queries -------------------------------------------------------------

    def sdk_league(self, mechanism="webview", corpus=None, options=None,
                   snapshot=None):
        """SDK league table: ``[(sdk, apps embedding it)]``, ranked.

        Byte-equal to ``sorted(aggregator.sdk_webview_apps.items(),
        key=lambda kv: (-kv[1], kv[0]))`` for the matching study run
        (``sdk_ct_apps`` for the ``customtabs`` mechanism).
        """
        key = ("sdk_league", mechanism, corpus, options, snapshot)
        return self._cached(key, lambda: self._sdk_league(
            mechanism, corpus, options, snapshot))

    def _sdk_league(self, mechanism, corpus, options, snapshot):
        seq = self.store.latest_seq("static", corpus, options, snapshot)
        if seq is None:
            return []
        rows = self.store._query(
            "SELECT sdk, COUNT(DISTINCT package) AS apps FROM sdk_labels"
            " WHERE ingest_seq = ? AND mechanism = ?"
            " GROUP BY sdk ORDER BY apps DESC, sdk ASC",
            (seq, mechanism),
        )
        return [(sdk, apps) for sdk, apps in rows]

    def adoption_trend(self, corpus=None, options=None):
        """Per-snapshot adoption rates, oldest snapshot first.

        Each row matches a
        :class:`~repro.longitudinal.trends.SnapshotPoint`: analyzed
        apps, WebView/CT/both app counts, and the percentage shares of
        its reducer :func:`~repro.longitudinal.trends.share`.
        """
        key = ("adoption_trend", corpus, options)
        return self._cached(key, lambda: self._adoption_trend(
            corpus, options))

    def _adoption_trend(self, corpus, options):
        from repro.longitudinal.trends import share

        sql = (
            "SELECT s.snapshot, s.items,"
            " COALESCE(SUM(o.uses_webview), 0),"
            " COALESCE(SUM(o.uses_customtabs), 0),"
            " COALESCE(SUM(o.uses_webview * o.uses_customtabs), 0)"
            " FROM snapshots s LEFT JOIN outcomes o"
            " ON o.ingest_seq = s.seq AND o.failed = 0"
            " WHERE s.kind = 'static'"
        )
        params = []
        for column, value in (("corpus", corpus), ("options", options)):
            if value is not None:
                sql += " AND s.%s = ?" % column
                params.append(value)
        sql += " GROUP BY s.seq ORDER BY s.snapshot, s.seq"
        return [
            {
                "snapshot": snapshot,
                "analyzed": analyzed,
                "webview_apps": webview,
                "ct_apps": ct,
                "both_apps": both,
                "webview_share": share(webview, analyzed),
                "ct_share": share(ct, analyzed),
                "both_share": share(both, analyzed),
            }
            for snapshot, analyzed, webview, ct, both in self.store._query(
                sql, tuple(params))
        ]

    def nutrition_label(self, package, corpus=None, options=None,
                        snapshot=None):
        """One app's third-party-web-content label, served from rows.

        The stored outcome + SDK label rows go through
        :func:`~repro.static_analysis.nutrition.make_label`, the reducer
        behind ``build_label``; the derived grade must equal the stored
        one. Returns None for an unknown or failed app.
        """
        key = ("nutrition_label", package, corpus, options, snapshot)
        return self._cached(key, lambda: self._nutrition_label(
            package, corpus, options, snapshot))

    def _nutrition_label(self, package, corpus, options, snapshot):
        from repro.sdk.catalog import SdkCategory
        from repro.static_analysis.nutrition import make_label

        seq = self.store.latest_seq("static", corpus, options, snapshot)
        if seq is None:
            return None
        rows = self.store._query(
            "SELECT failed, grade, uses_webview, uses_customtabs,"
            " exposes_js_bridge, can_inject_js, first_party_only"
            " FROM outcomes WHERE ingest_seq = ? AND package = ?",
            (seq, package),
        )
        if not rows or rows[0][0]:
            return None
        grade, facts = rows[0][1], rows[0][2:]
        types = {"webview": [], "customtabs": []}
        for mechanism, value in self.store._query(
                "SELECT DISTINCT mechanism, sdk_category FROM sdk_labels"
                " WHERE ingest_seq = ? AND package = ?", (seq, package)):
            types[mechanism].append(SdkCategory(value))
        label = make_label(package, *facts, types["webview"],
                           types["customtabs"])
        if label.grade != grade:
            raise ValueError(
                "stored grade %r disagrees with derived grade %r for %s"
                % (grade, label.grade, package)
            )
        return label

    def endpoint_summary(self, app, corpus=None, options=None,
                         snapshot=None):
        """Figure 6 data for one app, served from endpoint rows.

        The ``(means, type_means)`` pair of
        :meth:`CrawlResult.endpoint_summary`, from its reducer
        :func:`~repro.dynamic.crawler.endpoint_summary` run over the
        app's stored visits in crawl order.
        """
        key = ("endpoint_summary", app, corpus, options, snapshot)
        return self._cached(key, lambda: self._endpoint_summary(
            app, corpus, options, snapshot))

    def _endpoint_summary(self, app, corpus, options, snapshot):
        from repro.dynamic.crawler import endpoint_summary

        seq = self.store.latest_seq("crawl", corpus, options, snapshot)
        if seq is None:
            return {}, {}
        visits = {}
        for position, category, specific in self.store._query(
                "SELECT position, site_category, app_specific"
                " FROM crawl_visits WHERE ingest_seq = ? AND app = ?"
                " ORDER BY position", (seq, app)):
            visits[position] = (category, specific, {})
        for position, classification, hosts in self.store._query(
                "SELECT v.position, e.classification, COUNT(*)"
                " FROM endpoints e JOIN crawl_visits v"
                " ON v.ingest_seq = e.ingest_seq AND v.app = e.app"
                " AND v.site = e.site"
                " WHERE e.ingest_seq = ? AND e.app = ?"
                " AND e.app_specific = 1"
                " GROUP BY v.position, e.classification"
                " ORDER BY v.position", (seq, app)):
            visits[position][2][classification] = hosts
        return endpoint_summary(visits.values())

    def endpoint_census(self, app=None, app_specific_only=False,
                        corpus=None, options=None, snapshot=None):
        """Endpoint census by registrable domain, most-contacted first.

        Rows: ``(registrable domain, classification, distinct apps,
        visits, requests, cleartext hosts, credential-bearing hosts)``.
        The registrable-domain keying relies on the IP-literal fix —
        ``10.0.0.1`` and ``172.16.0.1`` are separate census rows, not a
        merged ``0.1``.
        """
        key = ("endpoint_census", app, app_specific_only, corpus,
               options, snapshot)
        return self._cached(key, lambda: self._endpoint_census(
            app, app_specific_only, corpus, options, snapshot))

    def _endpoint_census(self, app, app_specific_only, corpus, options,
                         snapshot):
        seq = self.store.latest_seq("crawl", corpus, options, snapshot)
        if seq is None:
            return []
        sql = (
            "SELECT registrable_domain, classification,"
            " COUNT(DISTINCT app) AS apps, COUNT(*) AS visits,"
            " SUM(requests), SUM(cleartext), SUM(has_credentials)"
            " FROM endpoints WHERE ingest_seq = ?"
        )
        params = [seq]
        if app is not None:
            sql += " AND app = ?"
            params.append(app)
        if app_specific_only:
            sql += " AND app_specific = 1"
        sql += (" GROUP BY registrable_domain, classification"
                " ORDER BY apps DESC, visits DESC, registrable_domain")
        return [tuple(row) for row in self.store._query(sql,
                                                        tuple(params))]

    def webapi_usage(self, corpus=None, options=None, snapshot=None):
        """Web-API usage rows: ``[(app, interface, method, calls)]``."""
        key = ("webapi_usage", corpus, options, snapshot)
        return self._cached(key, lambda: self._webapi_usage(
            corpus, options, snapshot))

    def _webapi_usage(self, corpus, options, snapshot):
        seq = self.store.latest_seq("webapi", corpus, options, snapshot)
        if seq is None:
            return []
        return [tuple(row) for row in self.store._query(
            "SELECT app, interface, method, calls FROM webapi_events"
            " WHERE ingest_seq = ? ORDER BY app, interface, method",
            (seq,),
        )]

    def bridge_findings(self, app=None, attacker=None, min_severity=None,
                        corpus=None, options=None, snapshot=None):
        """Injection-impact findings, in census selection order.

        Rows: ``(app, sdk, bridge, attacker, severity, readable,
        invocable, flows, cleartext)``. Byte-equal to flattening the
        live :attr:`~repro.impact.census.ImpactResult.findings` (the
        stored ``position`` column preserves selection order at any
        worker count / backend / streaming setting).
        """
        key = ("bridge_findings", app, attacker, min_severity, corpus,
               options, snapshot)
        return self._cached(key, lambda: self._bridge_findings(
            app, attacker, min_severity, corpus, options, snapshot))

    def _bridge_findings(self, app, attacker, min_severity, corpus,
                         options, snapshot):
        from repro.impact.severity import severity_rank

        seq = self.store.latest_seq("impact", corpus, options, snapshot)
        if seq is None:
            return []
        sql = (
            "SELECT app, sdk, bridge, attacker, severity, readable,"
            " invocable, flows, cleartext FROM bridge_findings"
            " WHERE ingest_seq = ?"
        )
        params = [seq]
        if app is not None:
            sql += " AND app = ?"
            params.append(app)
        if attacker is not None:
            sql += " AND attacker = ?"
            params.append(attacker)
        if min_severity is not None:
            sql += " AND severity_rank >= ?"
            params.append(severity_rank(min_severity))
        sql += " ORDER BY position"
        return [tuple(row) for row in self.store._query(sql,
                                                        tuple(params))]

    def capability_ranking(self, corpus=None, options=None, snapshot=None):
        """SDKs ranked by injection capability, served from rows.

        Byte-equal to
        :meth:`~repro.impact.census.ImpactResult.sdk_capability_ranking`:
        its reducer, :func:`~repro.impact.census.capability_ranking`,
        runs over the ``(sdk, severity)`` rows in selection order.
        """
        key = ("capability_ranking", corpus, options, snapshot)
        return self._cached(key, lambda: self._capability_ranking(
            corpus, options, snapshot))

    def _capability_ranking(self, corpus, options, snapshot):
        from repro.impact.census import capability_ranking

        seq = self.store.latest_seq("impact", corpus, options, snapshot)
        if seq is None:
            return []
        return capability_ranking(self.store._query(
            "SELECT sdk, severity FROM bridge_findings"
            " WHERE ingest_seq = ? ORDER BY position", (seq,)))

    def static_endpoints(self, source="static", app=None, corpus=None,
                         options=None, snapshot=None):
        """Static endpoint census rows, in census selection order.

        ``source`` selects ``static`` reconstructions, ``dynamic``
        cross-validation observations, or ``both``. Rows: ``(app,
        source, url, sdk, partial, cleartext, credentials, matched)``.
        Byte-equal to flattening the live
        :attr:`~repro.endpoints.EndpointResult.records` (the stored
        ``position`` column preserves selection order at any worker
        count / backend / streaming setting).
        """
        key = ("static_endpoints", source, app, corpus, options, snapshot)
        return self._cached(key, lambda: self._static_endpoints(
            source, app, corpus, options, snapshot))

    def _static_endpoints(self, source, app, corpus, options, snapshot):
        seq = self.store.latest_seq("endpoints", corpus, options, snapshot)
        if seq is None:
            return []
        sql = (
            "SELECT app, source, url, sdk, partial, cleartext,"
            " has_credentials, matched FROM static_endpoints"
            " WHERE ingest_seq = ?"
        )
        params = [seq]
        if source != "both":
            sql += " AND source = ?"
            params.append(source)
        if app is not None:
            sql += " AND app = ?"
            params.append(app)
        sql += " ORDER BY position"
        return [tuple(row) for row in self.store._query(sql,
                                                        tuple(params))]

    def static_sdk_census(self, corpus=None, options=None, snapshot=None):
        """Per-SDK endpoint census rows, served from stored rows.

        :meth:`~repro.endpoints.EndpointResult.sdk_census` in the
        census table's SDK order, ``[(sdk, {total, full, partial,
        cleartext, credentials})]``, from its reducer
        :func:`~repro.endpoints.census.sdk_census`.
        """
        key = ("static_sdk_census", corpus, options, snapshot)
        return self._cached(key, lambda: self._static_sdk_census(
            corpus, options, snapshot))

    def _static_sdk_census(self, corpus, options, snapshot):
        from repro.endpoints.census import sdk_census

        rows = self._static_endpoints("static", None, corpus, options,
                                      snapshot)
        census = sdk_census(row[3:7] for row in rows)
        return [(sdk, census[sdk]) for sdk in sorted(census)]

    def validation(self, corpus=None, options=None, snapshot=None):
        """Per-SDK static-vs-dynamic precision/recall, served from rows.

        Byte-equal to
        :meth:`~repro.endpoints.ValidationResult.as_rows` (``[(sdk,
        static_total, dynamic_total, matched_static, matched_dynamic,
        precision, recall)]``): the stored validated rows go through
        :func:`~repro.endpoints.crossval.validation_rows`, the reducer
        behind :func:`~repro.endpoints.cross_validate`.
        """
        key = ("validation", corpus, options, snapshot)
        return self._cached(key, lambda: self._validation(
            corpus, options, snapshot))

    def _validation(self, corpus, options, snapshot):
        from repro.endpoints.crossval import validation_rows

        seq = self.store.latest_seq("endpoints", corpus, options, snapshot)
        if seq is None:
            return []
        return [row.as_row() for row in validation_rows(self.store._query(
            "SELECT source, sdk, matched FROM static_endpoints"
            " WHERE ingest_seq = ? AND validated = 1"
            " ORDER BY position", (seq,)))]

    def funnel(self, corpus=None, options=None, snapshot=None):
        """The latest static ingest's Table 2 funnel dict."""
        key = ("funnel", corpus, options, snapshot)

        def compute():
            seq = self.store.latest_seq("static", corpus, options,
                                        snapshot)
            return {} if seq is None else self.store.funnel(seq)

        return self._cached(key, compute)


# -- CLI ----------------------------------------------------------------------


def _cmd_snapshots(service, args):
    ingests = service.store.list_ingests(kind=args.kind)
    if not ingests:
        print("no ingests recorded")
        return 0
    for ingest in ingests:
        print("%-16s %-8s snapshot=%-12s corpus=%-18s items=%d" % (
            ingest["ingest_id"], ingest["kind"],
            ingest["snapshot"] or "-", ingest["corpus"] or "-",
            ingest["items"],
        ))
    return 0


def _cmd_league(service, args):
    league = service.sdk_league(mechanism=args.mechanism,
                                snapshot=args.snapshot)
    if not league:
        print("no static ingests recorded")
        return 0
    print("%-36s %s" % ("SDK", "#apps"))
    for sdk, apps in league[:args.top]:
        print("%-36s %d" % (sdk, apps))
    return 0


def _cmd_trend(service, args):
    trend = service.adoption_trend()
    if not trend:
        print("no static ingests recorded")
        return 0
    print("%-12s %-9s %-9s %-7s %-6s %-10s %s" % (
        "Snapshot", "Analyzed", "WebView", "CT", "Both",
        "WebView %", "CT %",
    ))
    for row in trend:
        print("%-12s %-9d %-9d %-7d %-6d %-10.1f %.1f" % (
            row["snapshot"] or "-", row["analyzed"],
            row["webview_apps"], row["ct_apps"], row["both_apps"],
            row["webview_share"], row["ct_share"],
        ))
    return 0


def _cmd_label(service, args):
    label = service.nutrition_label(args.package, snapshot=args.snapshot)
    if label is None:
        print("no stored outcome for %r" % args.package, file=sys.stderr)
        return 1
    print("%s: grade %s" % (label.package, label.grade))
    for line in label.disclosure_lines():
        print("  - %s" % line)
    return 0


def _cmd_endpoints(service, args):
    if args.source != "crawl":
        return _cmd_static_endpoints(service, args)
    census = service.endpoint_census(app=args.app,
                                     app_specific_only=args.app_specific)
    if not census:
        print("no crawl ingests recorded")
        return 0
    print("%-28s %-16s %-5s %-7s %-9s %-10s %s" % (
        "Registrable domain", "Type", "Apps", "Visits", "Requests",
        "Cleartext", "Credentials",
    ))
    for (domain, classification, apps, visits, requests, cleartext,
         credentials) in census[:args.top]:
        print("%-28s %-16s %-5d %-7d %-9d %-10d %d" % (
            domain, classification, apps, visits, requests,
            cleartext, credentials,
        ))
    return 0


def _cmd_static_endpoints(service, args):
    if args.source == "static" and args.app is None:
        census = service.static_sdk_census()
        if not census:
            print("no endpoints ingests recorded")
            return 0
        print("%-24s %-10s %-6s %-8s %-10s %s" % (
            "SDK", "Endpoints", "Full", "Partial", "Cleartext",
            "Credentials",
        ))
        for sdk, row in census[:args.top]:
            print("%-24s %-10d %-6d %-8d %-10d %d" % (
                sdk, row["total"], row["full"], row["partial"],
                row["cleartext"], row["credentials"],
            ))
        return 0
    rows = service.static_endpoints(source=args.source, app=args.app)
    if not rows:
        if args.app is not None:
            print("no endpoint rows match app %s" % args.app)
        else:
            print("no endpoints ingests recorded")
        return 0
    print("%-22s %-8s %-24s %-8s %s" % (
        "App", "Source", "SDK", "Flags", "URL",
    ))
    for (app, source, url, sdk, partial, cleartext, credentials,
         matched) in rows[:args.top]:
        flags = "".join((
            "p" if partial else "-", "c" if cleartext else "-",
            "k" if credentials else "-", "m" if matched else "-",
        ))
        print("%-22s %-8s %-24s %-8s %s" % (app, source, sdk, flags, url))
    return 0


def _cmd_validate(service, args):
    rows = service.validation()
    if not rows:
        print("no validated endpoints ingests recorded")
        return 0
    print("%-24s %-8s %-9s %-9s %-11s %s" % (
        "SDK", "Static", "Dynamic", "Matched", "Precision", "Recall",
    ))
    for (sdk, static_total, dynamic_total, matched_static,
         matched_dynamic, precision, recall) in rows:
        print("%-24s %-8d %-9d %-9s %-11.3f %.3f" % (
            sdk, static_total, dynamic_total,
            "%d/%d" % (matched_static, matched_dynamic),
            precision, recall,
        ))
    return 0


def _cmd_webapi(service, args):
    rows = service.webapi_usage()
    if not rows:
        print("no webapi ingests recorded")
        return 0
    for app, interface, method, calls in rows:
        print("%-24s %-20s %-24s %d" % (app, interface, method, calls))
    return 0


def _cmd_bridges(service, args):
    findings = service.bridge_findings(app=args.app,
                                       attacker=args.attacker,
                                       min_severity=args.min_severity)
    if not findings:
        print("no impact ingests recorded")
        return 0
    print("%-14s %-22s %-22s %-5s %-11s %s" % (
        "App", "SDK", "Bridge", "Atk", "Severity", "Flows",
    ))
    for (app, sdk, bridge, attacker, severity, _readable, _invocable,
         flows, _cleartext) in findings[:args.top]:
        print("%-14s %-22s %-22s %-5s %-11s %d" % (
            app, sdk, bridge, attacker, severity, flows,
        ))
    return 0


def _cmd_capability(service, args):
    from repro.impact.severity import SEVERITY_ORDER

    ranking = service.capability_ranking()
    if not ranking:
        print("no impact ingests recorded")
        return 0
    print("%-4s %-24s %-12s %s" % (
        "Rank", "SDK", "Capability", " ".join(SEVERITY_ORDER),
    ))
    for position, (sdk, reached, counts) in enumerate(ranking, start=1):
        print("%-4d %-24s %-12s %s" % (
            position, sdk, reached,
            " ".join(str(counts[s]) for s in SEVERITY_ORDER),
        ))
    return 0


def _cmd_funnel(service, args):
    funnel = service.funnel(snapshot=args.snapshot)
    if not funnel:
        print("no static ingests recorded")
        return 0
    print(json.dumps(funnel, indent=2, sort_keys=True))
    return 0


def _cmd_runs(service, args):
    runs = service.store.list_runs(kind=args.kind)
    if not runs:
        print("no runs recorded")
        return 0
    for run in runs:
        print("%-18s %-12s items=%-7d elapsed=%-10.3f %s %s" % (
            run["run_id"], run["kind"], run["items"], run["elapsed"],
            run["git"] or "-", run["label"],
        ))
    return 0


def _cmd_run(service, args):
    store = service.store
    meta = store.get_run(args.run_id)
    if meta is None:
        print("unknown run %r" % args.run_id, file=sys.stderr)
        return 1
    print(json.dumps(meta, indent=2, sort_keys=True))
    roots = store.load_spans(args.run_id)
    if roots:
        prof = perf.profile(roots)
        print("\ncritical path: %.3f clock s" % prof.critical_length)
        for stage in prof.ordered():
            print("  %-24s self=%-8.3f calls=%-5d cp-share=%.1f%%" % (
                stage.name, stage.self_time, stage.calls,
                100.0 * prof.path_share(stage.name),
            ))
    payloads = store.load_bench(args.run_id)
    for name in sorted(payloads):
        print("\nbench payload %s:" % name)
        print(json.dumps(payloads[name], indent=2, sort_keys=True))
    return 0


def _cmd_flamegraph(service, args):
    store = service.store
    run_id = args.run_id
    if run_id is None:
        runs = store.last_runs(args.kind, limit=1)
        if not runs:
            print("no runs of kind %r recorded" % args.kind if args.kind
                  else "no runs recorded", file=sys.stderr)
            return 1
        run_id = runs[0]
    roots = store.load_spans(run_id)
    if not roots:
        print("run %r has no recorded spans" % run_id, file=sys.stderr)
        return 1
    folded = perf.flamegraph(roots)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(folded)
        print("wrote %s (%d stacks)" % (args.out, len(folded.splitlines())))
    else:
        sys.stdout.write(folded)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.results",
        description="Query the persistent results store and its run "
                    "history.",
    )
    parser.add_argument("--db", help="database file (default: $%s)"
                        % RESULTS_DB_ENV_VAR)
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("snapshots", help="list recorded ingests")
    cmd.add_argument("--kind", help="only ingests of this kind")

    cmd = commands.add_parser("league", help="SDK league table")
    cmd.add_argument("--mechanism", default="webview",
                     choices=("webview", "customtabs"))
    cmd.add_argument("--snapshot", default=None)
    cmd.add_argument("--top", type=int, default=20)

    commands.add_parser("trend", help="adoption trend across snapshots")

    cmd = commands.add_parser("label", help="one app's nutrition label")
    cmd.add_argument("package")
    cmd.add_argument("--snapshot", default=None)

    cmd = commands.add_parser("endpoints",
                              help="endpoint census by registrable domain")
    cmd.add_argument("--app", default=None)
    cmd.add_argument("--app-specific", action="store_true",
                     help="only endpoints absent from the baseline shell")
    cmd.add_argument("--source", default="crawl",
                     choices=("crawl", "static", "dynamic", "both"),
                     help="crawl: dynamic crawl census (default);"
                          " static/dynamic/both: static reconstruction"
                          " rows and their cross-validation")
    cmd.add_argument("--top", type=int, default=30)

    commands.add_parser("webapi", help="Web-API call events per app")

    cmd = commands.add_parser(
        "bridges", help="injection-impact bridge findings")
    cmd.add_argument("--app", default=None)
    cmd.add_argument("--attacker", default=None,
                     choices=("sdk", "mitm"))
    cmd.add_argument("--min-severity", default=None,
                     choices=("none", "leak", "invoke", "exfiltrate"),
                     help="only findings at or above this severity")
    cmd.add_argument("--top", type=int, default=30)

    commands.add_parser("capability",
                        help="SDKs ranked by injection capability")

    commands.add_parser(
        "validate",
        help="static-vs-dynamic endpoint precision/recall per SDK")

    cmd = commands.add_parser("funnel", help="Table 2 funnel of an ingest")
    cmd.add_argument("--snapshot", default=None)

    cmd = commands.add_parser("runs", help="list recorded runs")
    cmd.add_argument("--kind", help="only runs of this kind")

    cmd = commands.add_parser("run", help="dump one run's profile")
    cmd.add_argument("run_id")

    cmd = commands.add_parser(
        "flamegraph", help="emit collapsed-stack text for one run"
    )
    cmd.add_argument("run_id", nargs="?", default=None,
                     help="run to fold (default: newest run)")
    cmd.add_argument("--kind", help="with no run_id: newest of this kind")
    cmd.add_argument("--out", help="write to a file instead of stdout")

    args = parser.parse_args(argv)
    service = ResultsService(ResultsStore.from_cli(args.db))
    handler = {
        "snapshots": _cmd_snapshots,
        "league": _cmd_league,
        "trend": _cmd_trend,
        "label": _cmd_label,
        "endpoints": _cmd_endpoints,
        "webapi": _cmd_webapi,
        "bridges": _cmd_bridges,
        "capability": _cmd_capability,
        "validate": _cmd_validate,
        "funnel": _cmd_funnel,
        "runs": _cmd_runs,
        "run": _cmd_run,
        "flamegraph": _cmd_flamegraph,
    }[args.command]
    try:
        status = handler(service, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``... | head``). Point stdout at
        # devnull so the flush at exit cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
