"""Cross-validating static endpoint reconstruction against the crawl.

The static census answers *what URLs could this app contact*; the
dynamic crawl's NetLog records *what one instrumented session actually
requested*. On the apps where both exist — the top-1K install overlap,
per the paper's crawl budget — the two views grade each other:

- **precision**: fraction of statically reconstructed endpoints observed
  dynamically (a miss is either dead code or a session that never
  exercised the path),
- **recall**: fraction of dynamically requested URLs the static pass
  reconstructed (a miss is runtime-configured or server-delivered).

Matching is scheme-exact: a *full* reconstruction matches a dynamic URL
when they are equal after stripping query and fragment; a *partial*
(prefix-only) reconstruction matches any dynamic URL it prefixes. Both
sides aggregate per attribution label so precision/recall are reported
per SDK, mirroring the per-vendor breakdowns the paper gives for its
dynamic observations.
"""

from repro.corpus.appgen import runtime_session_urls
from repro.netstack.netlog import NetLog, NetLogEventType

#: How many top-installed apps the dynamic crawl covers (paper's budget).
DEFAULT_OVERLAP = 1000


def session_netlog(spec, seed=0):
    """The dynamic crawl's NetLog for one instrumented app session.

    Wraps the corpus ground truth in the same NetLog shape the netstack
    emits during a crawl, so the cross-validation consumes exactly what
    a real crawl run would hand it.
    """
    netlog = NetLog(source_id=spec.index)
    for time_ms, (owner, url) in enumerate(
        runtime_session_urls(spec, seed=seed)
    ):
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST, url,
                   time_ms, owner=owner)
    return netlog


def strip_query(url):
    """A URL without its query or fragment — the match key."""
    for stop in ("?", "#"):
        cut = url.find(stop)
        if cut != -1:
            url = url[:cut]
    return url


class SdkValidation:
    """One SDK's precision/recall row."""

    __slots__ = ("sdk", "static_total", "dynamic_total", "matched_static",
                 "matched_dynamic")

    def __init__(self, sdk):
        self.sdk = sdk
        self.static_total = 0
        self.dynamic_total = 0
        self.matched_static = 0
        self.matched_dynamic = 0

    @property
    def precision(self):
        if not self.static_total:
            return 0.0
        return round(self.matched_static / self.static_total, 6)

    @property
    def recall(self):
        if not self.dynamic_total:
            return 0.0
        return round(self.matched_dynamic / self.dynamic_total, 6)

    def as_row(self):
        return (self.sdk, self.static_total, self.dynamic_total,
                self.matched_static, self.matched_dynamic,
                self.precision, self.recall)


def validation_rows(observations):
    """Per-SDK precision/recall rows from ``(source, sdk, matched)``.

    ``source`` is ``"static"`` for a reconstruction or ``"dynamic"``
    for a requested URL; ``matched`` is 0 or 1. Returns
    :class:`SdkValidation` rows sorted by SDK label. The one reduction
    behind :func:`cross_validate` and the served
    ``ResultsService.validation``.
    """
    rows = {}
    for source, sdk, matched in observations:
        row = rows.get(sdk)
        if row is None:
            row = rows[sdk] = SdkValidation(sdk)
        if source == "static":
            row.static_total += 1
            row.matched_static += matched
        else:
            row.dynamic_total += 1
            row.matched_dynamic += matched
    return [rows[sdk] for sdk in
            sorted(rows, key=lambda name: (name is None, name))]


class ValidationResult:
    """Per-SDK precision/recall over the static/dynamic overlap.

    ``static_detail`` holds one ``(app, url, matched)`` row per static
    reconstruction of an overlap app; ``dynamic_detail`` one ``(app,
    url, sdk, matched)`` row per distinct dynamically requested URL —
    both in deterministic (overlap-rank, first-seen) order. The results
    store persists the detail so the serving layer can re-derive the
    aggregate rows byte-for-byte.
    """

    def __init__(self, apps, rows, static_detail=(), dynamic_detail=()):
        self.apps = apps  # overlap size actually validated
        self.rows = rows  # list of SdkValidation, sorted by sdk label
        self.static_detail = list(static_detail)
        self.dynamic_detail = list(dynamic_detail)

    def as_rows(self):
        """Plain tuples, the exact shape the results store ingests."""
        return [row.as_row() for row in self.rows]


def match_static(record, dynamic_keys):
    """Does one static reconstruction match any dynamically seen URL?"""
    if record.partial:
        return any(key.startswith(record.url) for key in dynamic_keys)
    return strip_query(record.url) in dynamic_keys


def match_dynamic(key, full_keys, prefixes):
    """Was one dynamically seen URL statically reconstructed?"""
    if key in full_keys:
        return True
    return any(key.startswith(prefix) for prefix in prefixes)


def cross_validate(result, census, top=DEFAULT_OVERLAP, seed=None):
    """Grade a census result against simulated crawl sessions.

    ``result`` is the :class:`~repro.endpoints.census.EndpointResult`;
    ``census`` supplies the corpus, labeler and seed. Only apps in the
    top-``top`` install ranking that the census actually reconstructed
    participate (the paper crawls the most-installed slice). Returns a
    :class:`ValidationResult` with rows sorted by SDK label.
    """
    if seed is None:
        seed = census.seed
    reconstructed = result.by_package()
    overlap = [spec for spec in census.corpus.top_apps(top)
               if spec.package in reconstructed]
    observations = []
    static_detail = []
    dynamic_detail = []
    for spec in overlap:
        app = reconstructed[spec.package]
        netlog = session_netlog(spec, seed=seed)
        dynamic = [
            (event.details["owner"], event.url)
            for event in netlog.events
            if event.event_type
            == NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST
        ]
        # Distinct dynamic URLs, first-seen order, keyed without query.
        dynamic_keys = []
        dynamic_owner = {}
        seen = set()
        for owner, url in dynamic:
            key = strip_query(url)
            if key in seen:
                continue
            seen.add(key)
            dynamic_keys.append(key)
            dynamic_owner[key] = owner
        key_set = set(dynamic_keys)

        full_keys = {strip_query(r.url) for r in app.records
                     if not r.partial}
        prefixes = tuple(r.url for r in app.records if r.partial)

        for record in app.records:
            matched = int(match_static(record, key_set))
            observations.append(("static", record.sdk, matched))
            static_detail.append((spec.package, record.url, matched))
        for key in dynamic_keys:
            sdk = census._attribution(spec.package, dynamic_owner[key])
            matched = int(match_dynamic(key, full_keys, prefixes))
            observations.append(("dynamic", sdk, matched))
            dynamic_detail.append((spec.package, key, sdk, matched))

    return ValidationResult(len(overlap), validation_rows(observations),
                            static_detail, dynamic_detail)
