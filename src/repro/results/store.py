"""Schema'd SQLite results store for finished study outputs.

Every finished study — static, longitudinal snapshot, dynamic crawl,
Web-API measurement — can persist its *results* (not just telemetry)
into one SQLite database named by ``REPRO_RESULTS_DB``. The schema holds
the entities the paper's questions are asked over:

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

Conventions mirror :class:`repro.obs.store.TelemetryStore` and the
longitudinal RunStore: WAL journal with a busy timeout, append-only
writes, corrupt databases read as absent, and failed writes degrade to a
logged warning so the store never fails the study it is recording. Each
ingest runs on its own connection. Reads run inside a read scope
(:meth:`ResultsStore.reading`): one connection and one read snapshot
for every read in it, closed when the scope ends, so no connection
crosses a fork or a thread. A read outside any scope gets a scope of its
own.

The read side lives in :mod:`repro.results.serve`.
"""

import contextlib
import json
import os
import sqlite3
import threading

from repro.errors import NetworkError
from repro.obs.logs import get_logger
from repro.obs.store import git_describe
from repro.web.classify import classify_endpoint
from repro.web.urls import parse_url_cached

#: Environment variable naming the results database file.
RESULTS_DB_ENV_VAR = "REPRO_RESULTS_DB"

#: Bumped on any schema change; old files are never migrated in place.
#: v2: added the ``bridge_findings`` table (injection-impact census).
#: v3: added the ``static_endpoints`` table (static endpoint census and
#: its dynamic cross-validation rows).
SCHEMA_VERSION = 3

_BUSY_TIMEOUT_MS = 5000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_info (
    version INTEGER NOT NULL
);
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
"""


def env_db_path():
    """The validated ``REPRO_RESULTS_DB`` value, or None when unset."""
    raw = os.environ.get(RESULTS_DB_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    path = raw.strip()
    if os.path.isdir(path):
        raise ValueError(
            "%s=%r is a directory; it must name a database file, e.g. "
            "%s=%s" % (RESULTS_DB_ENV_VAR, raw, RESULTS_DB_ENV_VAR,
                       os.path.join(path, "results.db"))
        )
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                "%s=%r names a file in an uncreatable directory (%s)"
                % (RESULTS_DB_ENV_VAR, raw, exc)
            )
    return path


class ResultsStore:
    """Append-only SQLite sink + source for finished study results."""

    def __init__(self, path):
        if not path or not str(path).strip():
            raise ValueError(
                "ResultsStore needs a database file path; set the %s "
                "environment variable or pass one explicitly"
                % RESULTS_DB_ENV_VAR
            )
        self.path = str(path)
        self.log = get_logger("results.store")
        # The calling thread's open read scope: its connection, or None
        # when the database could not be opened (reads as absent).
        self._reader = threading.local()
        self._ensure_schema()

    @classmethod
    def from_env(cls):
        """A store for ``REPRO_RESULTS_DB``, or None when unset."""
        path = env_db_path()
        if path is None:
            return None
        return cls(path)

    # -- connections ---------------------------------------------------------

    def _connect(self):
        # Connections live for one ingest or one read scope: fork-safe,
        # and concurrent reader/writer processes interleave via WAL.
        # ``timeout`` sets SQLite's busy timeout on the connection.
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_MS / 1000.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _ensure_schema(self):
        conn = self._connect()
        try:
            with conn:
                conn.executescript(_SCHEMA)
                row = conn.execute(
                    "SELECT version FROM schema_info"
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO schema_info (version) VALUES (?)",
                        (SCHEMA_VERSION,),
                    )
                elif row[0] != SCHEMA_VERSION:
                    raise ValueError(
                        "results database %s has schema version %d, this "
                        "build writes version %d; point %s at a fresh "
                        "file" % (self.path, row[0], SCHEMA_VERSION,
                                  RESULTS_DB_ENV_VAR)
                    )
        finally:
            conn.close()

    # -- generation counter --------------------------------------------------

    def generation(self):
        """Monotonic ingest counter; the serving cache's invalidation key.

        Every completed ingest bumps it (it is ``MAX(seq)`` over the
        snapshots table), so any cache entry keyed on the generation is
        implicitly invalidated the moment new results land. A corrupt or
        empty database reads as generation 0.
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
        try:
            return self._insert_ingest(kind, writer, corpus, options,
                                       snapshot, git)
        except sqlite3.Error as exc:
            self.log.warning("ingest_failed", kind=kind, error=str(exc))
            return None

    def _insert_ingest(self, kind, writer, corpus, options, snapshot, git):
        conn = self._connect()
        try:
            with conn:
                # BEGIN IMMEDIATE serializes id allocation and the
                # idempotence check across concurrent writer processes.
                conn.execute("BEGIN IMMEDIATE")
                existing = conn.execute(
                    "SELECT ingest_id FROM snapshots WHERE kind = ? AND"
                    " corpus = ? AND options = ? AND snapshot = ?",
                    (kind, corpus, options, snapshot),
                ).fetchone()
                if existing is not None:
                    self.log.info("ingest_skipped", kind=kind,
                                  ingest=existing[0], snapshot=snapshot)
                    return existing[0]
                cursor = conn.execute(
                    "INSERT INTO snapshots (kind, corpus, options,"
                    " snapshot, git, items, funnel)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (kind, corpus, options, snapshot, git,
                     writer.items(), json.dumps(writer.funnel(),
                                                sort_keys=True)),
                )
                seq = cursor.lastrowid
                ingest_id = "%s-%06d" % (kind, seq)
                conn.execute(
                    "UPDATE snapshots SET ingest_id = ? WHERE seq = ?",
                    (ingest_id, seq),
                )
                writer.write(conn, seq)
        finally:
            conn.close()
        self.log.info("ingested", ingest=ingest_id, kind=kind,
                      snapshot=snapshot, items=writer.items())
        return ingest_id

    # -- reads (corrupt database => empty results) ---------------------------

    @contextlib.contextmanager
    def reading(self):
        """Run every read inside on one connection and one snapshot.

        Opens a connection and a deferred read transaction (``BEGIN``):
        the snapshot is fixed by the first read, so :meth:`generation`
        read first names exactly the data every later read sees, however
        many ingests land meanwhile. A nested scope on the same thread
        reuses the open one. The outermost scope closes the connection
        on exit, which rolls the read transaction back, so no connection
        outlives its scope. A database that cannot be opened reads as
        absent for the whole scope.
        """
        reader = self._reader
        if hasattr(reader, "conn"):
            yield
            return
        try:
            conn = self._connect()
        except sqlite3.Error:
            conn = None
        reader.conn = conn
        try:
            if conn is not None:
                conn.execute("BEGIN")
            yield
        finally:
            del reader.conn
            if conn is not None:
                conn.close()

    def _query(self, sql, params=()):
        with self.reading():
            conn = self._reader.conn
            if conn is None:
                return []
            try:
                return conn.execute(sql, params).fetchall()
            except sqlite3.Error:
                return []

    def list_ingests(self, kind=None):
        """Ingest metadata dicts, oldest first; optionally one kind."""
        sql = ("SELECT seq, ingest_id, kind, corpus, options, snapshot,"
               " git, items FROM snapshots")
        params = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " ORDER BY seq"
        return [
            {"seq": row[0], "ingest_id": row[1], "kind": row[2],
             "corpus": row[3], "options": row[4], "snapshot": row[5],
             "git": row[6], "items": row[7]}
            for row in self._query(sql, params)
        ]

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

    def __repr__(self):
        return "ResultsStore(%s)" % self.path


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
