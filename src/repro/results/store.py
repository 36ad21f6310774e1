"""Schema'd SQLite results store: study findings and run history.

Every finished study — static, longitudinal snapshot, dynamic crawl,
Web-API measurement — can persist its *results* into one SQLite
database named by ``REPRO_RESULTS_DB``. The schema holds the entities
the paper's questions are asked over:

- ``snapshots`` — one row per ingest, keyed ``(kind, corpus
  fingerprint, options token, snapshot date)``. Longitudinal deltas
  append new snapshot rows; nothing is ever rewritten, and re-ingesting
  an already-stored key is a no-op (idempotent delta-append).
- ``apps`` — app identity (package, category, installs).
- ``outcomes`` — per-(snapshot, app) analysis outcome: sha256, drop
  slug, WebView/CT usage, and the nutrition-label facts.
- ``sdk_labels`` — per-app SDK attributions, split by mechanism.
- ``method_calls`` — distinct WebView API methods per app, with the
  via-top-SDK flag Table 7 needs.
- ``crawl_visits`` / ``endpoints`` — per-(app, site) visit stats and
  per-host endpoint rows: registrable domain (IP-literal correct),
  classification, app-specific, cleartext and embedded-credentials
  flags.
- ``webapi_events`` — Web-API (interface, method) calls per app.
- ``bridge_findings`` — per-(app, SDK, bridge, attacker) severity rows
  from the injection-impact census (:mod:`repro.impact`).

The same file holds the run history: how each run *behaved*. ``runs``
has one row per recorded study run or benchmark, keyed ``(kind, corpus,
options, git)`` and ordered by ``seq``; ``traces``, ``registries`` and
``bench_payloads`` hold its span forest, metrics registry snapshot and
benchmark payloads, which :mod:`repro.obs.perf` profiles and folds into
flamegraphs. A study records its run only through its ``telemetry=``
store, never because it was handed a ``results_store=``.

How the file opens, upgrades, is written and is read is
:mod:`repro.persist`'s: WAL with a busy timeout, one ``BEGIN
IMMEDIATE`` transaction per ingest or run record, an older file
upgraded in place and a newer one refused, a corrupt file reading as
absent and a failed write degrading to a logged warning, so the store
never fails the study it is recording. Reads run inside a read scope
(:meth:`~repro.persist.SqliteStore.reading`): one connection and one
read snapshot for every read in it. This module holds only the schema,
the writers and the store-side queries.

The read side lives in :mod:`repro.results.serve`, which is also the
``python -m repro.results`` CLI.
"""

import functools
import json
import os
import subprocess

from repro.errors import NetworkError
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span
from repro.persist import SqliteStore, env_path
from repro.web.classify import classify_endpoint
from repro.web.urls import parse_url_cached

#: Environment variable naming the results database file.
RESULTS_DB_ENV_VAR = "REPRO_RESULTS_DB"

#: The ``repro`` package directory, whose files decide a ``-dirty`` stamp.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Bumped on any schema change. Older files are upgraded in place
#: (:mod:`repro.persist`): every change so far only added tables and
#: indexes, so re-running ``_SCHEMA`` is the whole migration.
#: v2: added the ``bridge_findings`` table (injection-impact census).
#: v3: added the ``static_endpoints`` table (static endpoint census and
#: its dynamic cross-validation rows).
#: v4: added the run history (``runs``, ``traces``, ``registries``,
#: ``bench_payloads``), the tables a schema-1 telemetry file holds, so
#: such a file upgrades in place too and keeps its runs.
SCHEMA_VERSION = 4

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    ingest_id TEXT UNIQUE,
    kind TEXT NOT NULL,
    corpus TEXT NOT NULL DEFAULT '',
    options TEXT NOT NULL DEFAULT '',
    snapshot TEXT NOT NULL DEFAULT '',
    git TEXT NOT NULL DEFAULT '',
    items INTEGER NOT NULL DEFAULT 0,
    funnel TEXT NOT NULL DEFAULT '{}'
);
CREATE UNIQUE INDEX IF NOT EXISTS snapshots_key
    ON snapshots (kind, corpus, options, snapshot);
CREATE TABLE IF NOT EXISTS apps (
    package TEXT PRIMARY KEY,
    category TEXT,
    installs INTEGER NOT NULL DEFAULT 0
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS outcomes (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    sha256 TEXT NOT NULL DEFAULT '',
    failed INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    uses_webview INTEGER NOT NULL DEFAULT 0,
    uses_customtabs INTEGER NOT NULL DEFAULT 0,
    grade TEXT NOT NULL DEFAULT '',
    exposes_js_bridge INTEGER NOT NULL DEFAULT 0,
    can_inject_js INTEGER NOT NULL DEFAULT 0,
    first_party_only INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, package)
);
CREATE TABLE IF NOT EXISTS sdk_labels (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    mechanism TEXT NOT NULL,
    sdk TEXT NOT NULL,
    sdk_category TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (ingest_seq, package, mechanism, sdk)
);
CREATE TABLE IF NOT EXISTS method_calls (
    ingest_seq INTEGER NOT NULL,
    package TEXT NOT NULL,
    method TEXT NOT NULL,
    via_sdk INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, package, method)
);
CREATE TABLE IF NOT EXISTS crawl_visits (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    site TEXT NOT NULL,
    site_category TEXT NOT NULL DEFAULT '',
    position INTEGER NOT NULL DEFAULT 0,
    endpoints INTEGER NOT NULL DEFAULT 0,
    app_specific INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, site)
);
CREATE TABLE IF NOT EXISTS endpoints (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    site TEXT NOT NULL,
    host TEXT NOT NULL,
    registrable_domain TEXT NOT NULL DEFAULT '',
    classification TEXT NOT NULL DEFAULT '',
    app_specific INTEGER NOT NULL DEFAULT 0,
    requests INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    has_credentials INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, site, host)
);
CREATE TABLE IF NOT EXISTS webapi_events (
    ingest_seq INTEGER NOT NULL,
    app TEXT NOT NULL,
    interface TEXT NOT NULL,
    method TEXT NOT NULL,
    calls INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, app, interface, method)
);
CREATE TABLE IF NOT EXISTS bridge_findings (
    ingest_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    app TEXT NOT NULL,
    package TEXT NOT NULL,
    sdk TEXT NOT NULL,
    bridge TEXT NOT NULL,
    attacker TEXT NOT NULL,
    severity TEXT NOT NULL,
    severity_rank INTEGER NOT NULL DEFAULT 0,
    readable TEXT NOT NULL DEFAULT '',
    invocable TEXT NOT NULL DEFAULT '',
    flows INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, position)
);
CREATE TABLE IF NOT EXISTS static_endpoints (
    ingest_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    app TEXT NOT NULL,
    source TEXT NOT NULL,
    url TEXT NOT NULL,
    sdk TEXT NOT NULL DEFAULT '',
    partial INTEGER NOT NULL DEFAULT 0,
    cleartext INTEGER NOT NULL DEFAULT 0,
    has_credentials INTEGER NOT NULL DEFAULT 0,
    host TEXT NOT NULL DEFAULT '',
    registrable_domain TEXT NOT NULL DEFAULT '',
    validated INTEGER NOT NULL DEFAULT 0,
    matched INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (ingest_seq, position)
);
CREATE INDEX IF NOT EXISTS outcomes_by_package
    ON outcomes (package, ingest_seq);
CREATE INDEX IF NOT EXISTS sdk_labels_by_ingest
    ON sdk_labels (ingest_seq, mechanism, sdk);
CREATE INDEX IF NOT EXISTS endpoints_by_domain
    ON endpoints (ingest_seq, registrable_domain);
CREATE INDEX IF NOT EXISTS bridge_findings_by_sdk
    ON bridge_findings (ingest_seq, sdk, severity_rank);
CREATE INDEX IF NOT EXISTS static_endpoints_by_sdk
    ON static_endpoints (ingest_seq, source, sdk);
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT UNIQUE,
    kind TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    corpus TEXT NOT NULL DEFAULT '',
    options TEXT NOT NULL DEFAULT '',
    git TEXT NOT NULL DEFAULT '',
    items INTEGER NOT NULL DEFAULT 0,
    elapsed REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS traces (
    run_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    tree TEXT NOT NULL,
    PRIMARY KEY (run_seq, position)
);
CREATE TABLE IF NOT EXISTS registries (
    run_seq INTEGER PRIMARY KEY,
    snapshot TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS bench_payloads (
    run_seq INTEGER NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_seq, name)
);
CREATE INDEX IF NOT EXISTS runs_by_key
    ON runs (kind, corpus, options, seq);
"""


def env_db_path():
    """The validated ``REPRO_RESULTS_DB`` value, or None when unset."""
    return env_path(RESULTS_DB_ENV_VAR, ResultsStore.FILE_NAME)


def study_sinks(telemetry, results_store):
    """A study's ``(telemetry, results_store)``, defaults filled in.

    Each left at None defaults to the ``REPRO_RESULTS_DB`` store, looked
    up once, so the one variable turns on both. Runs are recorded only
    through ``telemetry``, so passing a ``results_store`` never turns
    run records on.
    """
    if telemetry is None or results_store is None:
        default = ResultsStore.from_env()
        telemetry = default if telemetry is None else telemetry
        results_store = default if results_store is None else results_store
    return telemetry, results_store


def git_describe(cwd=None):
    """``git describe --always`` of the code's checkout, or ''.

    ``cwd`` defaults to the ``repro`` package directory. The stamp gets
    ``-dirty`` only when files under ``cwd`` differ from HEAD, untracked
    ones included, so edits elsewhere in the checkout (docs, benchmark
    payloads) do not mark the code that produced a run as modified. The
    default stamp names the code this process imported, so it is
    computed once per process.
    """
    if cwd is None:
        return _package_stamp()
    try:
        described = subprocess.run(
            ["git", "describe", "--always"],
            cwd=cwd, capture_output=True, timeout=10,
        )
        if described.returncode != 0:
            return ""
        status = subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain", "--",
             "."],
            cwd=cwd, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    stamp = described.stdout.decode("utf-8", "replace").strip()
    dirty = status.returncode == 0 and status.stdout.strip()
    return stamp + "-dirty" if dirty else stamp


@functools.lru_cache(maxsize=None)
def _package_stamp():
    return git_describe(_PACKAGE_DIR)


#: Columns that identify an ingest: re-ingesting a stored key is a no-op.
_INGEST_KEY = ("kind", "corpus", "options", "snapshot")

#: The columns an ingest's and a run's metadata dicts carry.
_INGEST_COLUMNS = ("seq", "ingest_id", "kind", "corpus", "options",
                   "snapshot", "git", "items")
_RUN_COLUMNS = ("run_id", "kind", "label", "corpus", "options", "git",
                "items", "elapsed")


def _where_kind(kind):
    """The SQL filter and parameters for one kind, or for every kind."""
    return ("", ()) if kind is None else (" WHERE kind = ?", (kind,))


class ResultsStore(SqliteStore):
    """Append-only SQLite sink + source for study results and run history."""

    NOUN = "results"
    ENV_VAR = RESULTS_DB_ENV_VAR
    FILE_NAME = "results.db"
    SCHEMA = _SCHEMA
    SCHEMA_VERSION = SCHEMA_VERSION
    log = get_logger("results.store")

    # -- generation counter --------------------------------------------------

    def generation(self):
        """Monotonic ingest counter; the serving cache's invalidation key.

        Every completed ingest bumps it (it is ``MAX(seq)`` over the
        snapshots table), so any cache entry keyed on the generation is
        implicitly invalidated the moment new results land. Run records
        do not bump it. A corrupt or empty database reads as
        generation 0.
        """
        rows = self._query("SELECT MAX(seq) FROM snapshots")
        if not rows or rows[0][0] is None:
            return 0
        return rows[0][0]

    # -- ingest --------------------------------------------------------------

    def ingest(self, result, corpus="", options="", snapshot="", git=None,
               app_name=None, prepared=None):
        """Persist one finished study output; returns ingest_id or None.

        Dispatches on type: a
        :class:`~repro.static_analysis.results.StudyResult` lands as a
        ``static`` snapshot, a :class:`~repro.dynamic.crawler.CrawlResult`
        as a ``crawl`` snapshot. Ingests are keyed by ``(kind, corpus,
        options, snapshot)``: re-ingesting an existing key is an
        idempotent no-op returning the stored ingest_id, so longitudinal
        re-runs append only genuinely new snapshots. Failed writes are
        logged and swallowed — recording results must never fail the
        study that produced them.

        ``prepared`` (static ingests only) maps package ->
        :func:`prepare_study_row` output computed earlier — how a
        streaming study spreads SDK labeling over the run instead of
        paying it all inside the ingest transaction. Rows are identical
        with or without it; missing packages are prepared on the spot.
        """
        # Late imports keep repro.results importable without dragging in
        # the full analysis stack at module load.
        from repro.dynamic.crawler import CrawlResult
        from repro.static_analysis.results import StudyResult

        if isinstance(result, StudyResult):
            writer = _StudyWriter(result, prepared=prepared)
            kind = "static"
        elif isinstance(result, CrawlResult):
            writer = _CrawlWriter(result)
            kind = "crawl"
        else:
            raise TypeError(
                "ResultsStore.ingest expects a StudyResult or a "
                "CrawlResult, got %r" % type(result).__name__
            )
        return self._ingest(kind, writer, corpus, options, snapshot, git)

    def ingest_webapi(self, measurements, corpus="", options="",
                      snapshot="", git=None):
        """Persist Web-API call events from IAB measurements."""
        return self._ingest("webapi", _WebApiWriter(measurements),
                            corpus, options, snapshot, git)

    def ingest_impact(self, result, corpus="", options="", snapshot="",
                      git=None):
        """Persist an injection-impact census
        (:class:`~repro.impact.ImpactResult`) as ``bridge_findings``."""
        return self._ingest("impact", _ImpactWriter(result),
                            corpus, options, snapshot, git)

    def ingest_endpoints(self, result, validation=None, corpus="",
                         options="", snapshot="", git=None):
        """Persist a static endpoint census
        (:class:`~repro.endpoints.EndpointResult`), optionally with its
        dynamic cross-validation
        (:class:`~repro.endpoints.ValidationResult`), as
        ``static_endpoints`` rows."""
        return self._ingest("endpoints",
                            _EndpointsWriter(result, validation),
                            corpus, options, snapshot, git)

    def _ingest(self, kind, writer, corpus, options, snapshot, git):
        if git is None:
            git = git_describe()
        return self._append(
            "snapshots", "ingest_id",
            {"kind": kind, "corpus": corpus, "options": options,
             "snapshot": snapshot, "git": git, "items": writer.items(),
             "funnel": json.dumps(writer.funnel(), sort_keys=True)},
            writer.write, key=_INGEST_KEY,
        )

    # -- run history ---------------------------------------------------------

    def record_run(self, obs, kind, label="", corpus="", options="",
                   git=None, items=0, root_span="run"):
        """Persist one finished run's bundle; returns run_id or None.

        Failure to write is logged and swallowed — the store observes
        runs, it must never fail one.
        """
        if git is None:
            git = git_describe()
        trees = [json.dumps(root.to_dict(), sort_keys=True)
                 for root in obs.tracer.roots]
        snapshot = json.dumps(obs.registry.as_dict(), sort_keys=True)
        elapsed = sum(
            span.duration for span in obs.tracer.iter_spans()
            if span.name == root_span
        )

        def write(conn, seq):
            conn.executemany(
                "INSERT INTO traces (run_seq, position, tree)"
                " VALUES (?, ?, ?)",
                [(seq, position, tree) for position, tree
                 in enumerate(trees)],
            )
            conn.execute(
                "INSERT INTO registries (run_seq, snapshot) VALUES (?, ?)",
                (seq, snapshot),
            )

        return self._append(
            "runs", "run_id",
            {"kind": kind, "label": label, "corpus": corpus,
             "options": options, "git": git, "items": items,
             "elapsed": elapsed}, write,
        )

    def record_bench(self, name, payload, git=None):
        """Persist one benchmark's JSON payload; returns run_id or None."""
        if git is None:
            git = git_describe()
        text = json.dumps(payload, sort_keys=True)

        def write(conn, seq):
            conn.execute(
                "INSERT INTO bench_payloads (run_seq, name, payload)"
                " VALUES (?, ?, ?)", (seq, name, text),
            )

        return self._append("runs", "run_id",
                            {"kind": "bench", "label": name, "git": git},
                            write)

    # -- reads (corrupt database => empty results) ---------------------------

    def list_ingests(self, kind=None):
        """Ingest metadata dicts, oldest first; optionally one kind."""
        where, params = _where_kind(kind)
        return [dict(zip(_INGEST_COLUMNS, row)) for row in self._query(
            "SELECT %s FROM snapshots%s ORDER BY seq"
            % (", ".join(_INGEST_COLUMNS), where), params)]

    def latest_seq(self, kind, corpus=None, options=None, snapshot=None):
        """Newest matching ingest's seq, or None."""
        sql = "SELECT seq FROM snapshots WHERE kind = ?"
        params = [kind]
        for column, value in (("corpus", corpus), ("options", options),
                              ("snapshot", snapshot)):
            if value is not None:
                sql += " AND %s = ?" % column
                params.append(value)
        sql += " ORDER BY seq DESC LIMIT 1"
        rows = self._query(sql, tuple(params))
        return rows[0][0] if rows else None

    def funnel(self, seq):
        """One ingest's Table 2 funnel dict, or {}."""
        rows = self._query(
            "SELECT funnel FROM snapshots WHERE seq = ?", (seq,)
        )
        if not rows:
            return {}
        try:
            return json.loads(rows[0][0])
        except ValueError:
            return {}

    def list_runs(self, kind=None):
        """Run metadata dicts, oldest first; optionally one kind only."""
        where, params = _where_kind(kind)
        return [dict(zip(_RUN_COLUMNS, row)) for row in self._query(
            "SELECT %s FROM runs%s ORDER BY seq"
            % (", ".join(_RUN_COLUMNS), where), params)]

    def get_run(self, run_id):
        """One run's metadata dict, or None."""
        rows = self._query(
            "SELECT %s FROM runs WHERE run_id = ?" % ", ".join(_RUN_COLUMNS),
            (run_id,),
        )
        return dict(zip(_RUN_COLUMNS, rows[0])) if rows else None

    def last_runs(self, kind=None, limit=10):
        """run_ids of the newest runs, newest first; optionally one kind."""
        where, params = _where_kind(kind)
        return [row[0] for row in self._query(
            "SELECT run_id FROM runs%s ORDER BY seq DESC LIMIT ?" % where,
            params + (int(limit),))]

    def load_spans(self, run_id):
        """The run's span forest, rebuilt as live :class:`Span` trees."""
        rows = self._query(
            "SELECT tree FROM traces WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?) ORDER BY position",
            (run_id,),
        )
        roots = []
        for (tree,) in rows:
            try:
                roots.append(Span.from_dict(json.loads(tree)))
            except (ValueError, KeyError, TypeError):
                continue
        return roots

    def load_registry(self, run_id):
        """The run's metrics registry snapshot, or None."""
        rows = self._query(
            "SELECT snapshot FROM registries WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?)", (run_id,),
        )
        if not rows:
            return None
        try:
            return MetricsRegistry.from_dict(json.loads(rows[0][0]))
        except (ValueError, KeyError, TypeError):
            return None

    def load_bench(self, run_id):
        """``{name: payload}`` for a bench run's recorded payloads."""
        rows = self._query(
            "SELECT name, payload FROM bench_payloads WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?)", (run_id,),
        )
        out = {}
        for name, payload in rows:
            try:
                out[name] = json.loads(payload)
            except ValueError:
                continue
        return out


# -- ingest writers -----------------------------------------------------------


def prepare_study_row(analysis, labeler):
    """Precompute one successful app's ingest-row inputs.

    Returns the ``(attribution, nutrition label)`` pair
    :class:`_StudyWriter` needs per app. Both are pure functions of the
    analysis, so a streaming study can call this incrementally as
    outcomes land and hand the accumulated map to
    :meth:`ResultsStore.ingest` via ``prepared=`` — the ingest
    transaction then only writes rows, and the stored bytes are
    identical either way.
    """
    from repro.static_analysis.nutrition import build_label

    attribution = analysis.label_sdks(labeler)
    return attribution, build_label(analysis, attribution)


class _StudyWriter:
    """Flattens a StudyResult into outcomes/sdk_labels/method_calls rows.

    The row semantics deliberately mirror
    :class:`repro.static_analysis.report.Aggregator` — the serving layer
    must reproduce the in-memory aggregation byte-for-byte, so what the
    Aggregator derives per app is exactly what gets stored per app.
    """

    def __init__(self, result, prepared=None):
        self.result = result
        self.prepared = prepared or {}

    def items(self):
        return self.result.analyzed

    def funnel(self):
        return self.result.funnel_dict()

    def write(self, conn, seq):
        from repro.sdk.labeling import PackageLabel
        from repro.static_analysis.results import RecordedCall

        labeler = self.result.labeler
        for analysis in self.result.analyses:
            conn.execute(
                "INSERT OR IGNORE INTO apps (package, category, installs)"
                " VALUES (?, ?, ?)",
                (analysis.package,
                 str(analysis.category) if analysis.category else None,
                 analysis.installs),
            )
            if analysis.failed:
                conn.execute(
                    "INSERT INTO outcomes (ingest_seq, package, sha256,"
                    " failed, error) VALUES (?, ?, ?, 1, ?)",
                    (seq, analysis.package,
                     getattr(analysis, "sha256", "") or "",
                     analysis.failure_reason),
                )
                continue
            entry = self.prepared.get(analysis.package)
            if entry is None:
                entry = prepare_study_row(analysis, labeler)
            attribution, label = entry
            conn.execute(
                "INSERT INTO outcomes (ingest_seq, package, sha256,"
                " failed, error, uses_webview, uses_customtabs, grade,"
                " exposes_js_bridge, can_inject_js, first_party_only)"
                " VALUES (?, ?, ?, 0, NULL, ?, ?, ?, ?, ?, ?)",
                (seq, analysis.package,
                 getattr(analysis, "sha256", "") or "",
                 int(analysis.uses_webview), int(analysis.uses_customtabs),
                 label.grade, int(label.exposes_js_bridge),
                 int(label.can_inject_js), int(label.first_party_only)),
            )
            for mechanism, bucket in (
                ("webview", attribution.webview),
                ("customtabs", attribution.customtabs),
            ):
                for sdk in bucket.sdks:
                    conn.execute(
                        "INSERT OR IGNORE INTO sdk_labels (ingest_seq,"
                        " package, mechanism, sdk, sdk_category)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (seq, analysis.package, mechanism, sdk.name,
                         str(sdk.category)),
                    )
            methods_seen = set()
            methods_via_sdk = set()
            for call in analysis.counting_calls(RecordedCall.WEBVIEW):
                methods_seen.add(call.method)
                if (labeler.label(call.caller_package).status
                        == PackageLabel.KNOWN):
                    methods_via_sdk.add(call.method)
            for method in sorted(methods_seen):
                conn.execute(
                    "INSERT INTO method_calls (ingest_seq, package,"
                    " method, via_sdk) VALUES (?, ?, ?, ?)",
                    (seq, analysis.package, method,
                     int(method in methods_via_sdk)),
                )


class _CrawlWriter:
    """Flattens a CrawlResult into crawl_visits/endpoints rows.

    Per-host rows reuse the exact classification the Figure 6 summary
    computes (``classify_endpoint(host, intended_url)``), and add the
    endpoint-security facts URL parsing now surfaces: the (IP-correct)
    registrable domain, cleartext transport, embedded credentials.
    """

    def __init__(self, crawl):
        self.crawl = crawl

    def items(self):
        return len(self.crawl.visits)

    def funnel(self):
        return {}

    def write(self, conn, seq):
        for position, visit in enumerate(self.crawl.visits):
            specific = set(self.crawl.app_specific_hosts(visit))
            hosts = visit.hosts()
            conn.execute(
                "INSERT OR REPLACE INTO crawl_visits (ingest_seq, app,"
                " site, site_category, position, endpoints, app_specific)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (seq, visit.app.name, visit.site.host,
                 str(visit.site.category), position,
                 len(visit.endpoints), len(specific)),
            )
            # Stats are keyed exactly the way SiteVisit.hosts() keys
            # hosts (the raw netloc), so every summary host gets a row.
            per_host = {}
            for endpoint in visit.endpoints:
                netloc = endpoint.split("://", 1)[1].split("/", 1)[0]
                stats = per_host.setdefault(
                    netloc, {"requests": 0, "cleartext": 0,
                             "credentials": 0, "domain": ""},
                )
                stats["requests"] += 1
                try:
                    url = parse_url_cached(endpoint)
                except NetworkError:
                    continue
                stats["domain"] = url.registrable_domain
                if url.scheme in ("http", "ws"):
                    stats["cleartext"] = 1
                if url.has_credentials:
                    stats["credentials"] = 1
            for host in hosts:
                stats = per_host.get(host)
                if stats is None:
                    continue
                classification = classify_endpoint(
                    host, intended_url=visit.site.landing_url
                )
                conn.execute(
                    "INSERT OR REPLACE INTO endpoints (ingest_seq, app,"
                    " site, host, registrable_domain, classification,"
                    " app_specific, requests, cleartext, has_credentials)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (seq, visit.app.name, visit.site.host, host,
                     stats["domain"], str(classification),
                     int(host in specific), stats["requests"],
                     stats["cleartext"], stats["credentials"]),
                )


class _ImpactWriter:
    """Flattens an ImpactResult into bridge_findings rows.

    Rows are written in the census's selection order with an explicit
    ``position`` column, so the stored bytes are identical at any worker
    count, backend, and streaming setting (the census already guarantees
    the finding order).
    """

    def __init__(self, result):
        self.result = result
        self._findings = result.findings

    def items(self):
        return len(self._findings)

    def funnel(self):
        counts = {}
        for finding in self._findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return {
            "apps": len(self.result.records),
            "findings": len(self._findings),
            "severities": counts,
        }

    def write(self, conn, seq):
        from repro.impact.severity import severity_rank

        for position, finding in enumerate(self._findings):
            conn.execute(
                "INSERT OR REPLACE INTO bridge_findings (ingest_seq,"
                " position, app, package, sdk, bridge, attacker,"
                " severity, severity_rank, readable, invocable, flows,"
                " cleartext)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (seq, position, finding.app, finding.package, finding.sdk,
                 finding.bridge, finding.attacker, finding.severity,
                 severity_rank(finding.severity),
                 ",".join(finding.readable), ",".join(finding.invocable),
                 finding.flow_count, int(finding.cleartext)),
            )


class _EndpointsWriter:
    """Flattens an EndpointResult (+ optional validation) into rows.

    Static rows land in census selection order; when a validation is
    supplied, overlap apps carry ``validated = 1`` and per-URL
    ``matched`` flags, and the validation's dynamic detail follows as
    ``source = 'dynamic'`` rows — everything the serving layer needs to
    re-derive the per-SDK precision/recall table byte-for-byte.
    """

    def __init__(self, result, validation=None):
        self.result = result
        self.validation = validation

    def items(self):
        return len(self.result.records)

    def funnel(self):
        census = self.result.sdk_census()
        funnel = {
            "apps": len(self.result.apps),
            "endpoints": len(self.result.records),
            "full": sum(row["full"] for row in census.values()),
            "partial": sum(row["partial"] for row in census.values()),
            "cleartext": sum(row["cleartext"] for row in census.values()),
            "credentials": sum(row["credentials"]
                               for row in census.values()),
        }
        if self.validation is not None:
            funnel["validated_apps"] = self.validation.apps
        return funnel

    def write(self, conn, seq):
        # Per-(app, url) match flags, queued in record order — the same
        # URL may legally appear once full and once partial per app.
        matched = {}
        validated = set()
        if self.validation is not None:
            for app, url, flag in self.validation.static_detail:
                matched.setdefault((app, url), []).append(flag)
                validated.add(app)
        position = 0
        for app in self.result.apps:
            in_overlap = app.package in validated
            for record in app.records:
                conn.execute(
                    "INSERT OR REPLACE INTO static_endpoints (ingest_seq,"
                    " position, app, source, url, sdk, partial, cleartext,"
                    " has_credentials, host, registrable_domain,"
                    " validated, matched)"
                    " VALUES (?, ?, ?, 'static', ?, ?, ?, ?, ?, ?, ?, ?,"
                    " ?)",
                    (seq, position, app.package, record.url,
                     record.sdk or "", int(record.partial),
                     int(record.cleartext), int(record.credentials),
                     record.host, record.registrable_domain,
                     int(in_overlap),
                     (matched[(app.package, record.url)].pop(0)
                      if matched.get((app.package, record.url)) else 0)),
                )
                position += 1
        if self.validation is not None:
            for app, url, sdk, flag in self.validation.dynamic_detail:
                conn.execute(
                    "INSERT OR REPLACE INTO static_endpoints (ingest_seq,"
                    " position, app, source, url, sdk, validated, matched)"
                    " VALUES (?, ?, ?, 'dynamic', ?, ?, 1, ?)",
                    (seq, position, app, url, sdk, flag),
                )
                position += 1


class _WebApiWriter:
    """Flattens IabMeasurement Web-API (interface, method) pairs."""

    def __init__(self, measurements):
        self.measurements = measurements

    def items(self):
        return len(self.measurements)

    def funnel(self):
        return {}

    def write(self, conn, seq):
        for name in sorted(self.measurements):
            measurement = self.measurements[name]
            counts = {}
            for interface, method in measurement.webapi_pairs:
                key = (interface, method)
                counts[key] = counts.get(key, 0) + 1
            for (interface, method), calls in sorted(counts.items()):
                conn.execute(
                    "INSERT OR REPLACE INTO webapi_events (ingest_seq,"
                    " app, interface, method, calls)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (seq, name, interface, method, calls),
                )
