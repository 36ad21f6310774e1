"""Deterministic network simulation.

Models DNS + connection + transfer latency per request against the
top-site profiles, writes every request's lifecycle into a
:class:`~repro.netstack.netlog.NetLog`, and returns responses with the
headers the pipelines care about (``X-Requested-With`` detection works
because requests carry real header dicts).
"""

from repro.errors import DnsError
from repro.exec.cache import LruStore, env_max_entries
from repro.netstack.netlog import NetLogEventType
from repro.util import derive_seed, make_rng
from repro.web.urls import parse_url_cached


class Request:
    """An HTTP(S) request."""

    def __init__(self, url, method="GET", headers=None, body=b""):
        self.url = parse_url_cached(url) if isinstance(url, str) else url
        self.method = method
        self.headers = dict(headers or {})
        self.body = body

    def __repr__(self):
        return "Request(%s %s)" % (self.method, self.url)


class Response:
    """An HTTP(S) response with timing."""

    def __init__(self, url, status=200, headers=None, body=b"",
                 elapsed_ms=0.0):
        self.url = url
        self.status = status
        self.headers = dict(headers or {})
        self.body = body
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self):
        return 200 <= self.status < 300

    def __repr__(self):
        return "Response(%d, %s, %.0fms)" % (
            self.status, self.url, self.elapsed_ms
        )


class SiteTemplate:
    """Shared, read-only response state for one registered site.

    Every app shard registers the same top sites into its own
    :class:`Network`; the template memoizes the per-path response bodies
    and the profile-derived latency so that state is built once per
    process instead of once per (app, site) pair. Templates hold no
    per-connection state — warm origins, RNG streams, and request logs
    stay on each Network.
    """

    __slots__ = ("host", "extra_latency_ms", "third_party_hosts",
                 "_page_html", "_bodies")

    def __init__(self, site_profile, page_html):
        self.host = site_profile.host
        self.extra_latency_ms = site_profile.base_load_ms / 4
        self.third_party_hosts = tuple(site_profile.third_party_hosts)
        self._page_html = page_html
        self._bodies = {}

    def body(self, path):
        """The response bytes for a path (memoized per template)."""
        cached = self._bodies.get(path)
        if cached is None:
            if path == "/":
                cached = self._page_html
            else:
                cached = b"resource:" + path.encode("utf-8")
            self._bodies[path] = cached
        return cached


class SiteTemplateCache:
    """Process-wide memo of :class:`SiteTemplate` per registered site.

    Keyed on every profile field the template derives from, so two
    profiles that differ (e.g. from different ``top_sites`` seeds) never
    share state. Bounded by ``REPRO_CACHE_MAX_ENTRIES``.
    """

    def __init__(self, max_entries=None):
        if max_entries is None:
            max_entries = env_max_entries()
        self._store = LruStore(max_entries)
        self.hits = 0
        self.misses = 0

    def template_for(self, site_profile, page_html):
        key = (site_profile.host, site_profile.base_load_ms,
               tuple(site_profile.third_party_hosts), page_html)
        template = self._store.get(key)
        if template is None:
            template = SiteTemplate(site_profile, page_html)
            self._store.put(key, template)
            self.misses += 1
        else:
            self.hits += 1
        return template

    def clear(self):
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._store)


_DEFAULT_TEMPLATE_CACHE = None


def default_site_template_cache():
    """The process-wide site-template cache (created lazily)."""
    global _DEFAULT_TEMPLATE_CACHE
    if _DEFAULT_TEMPLATE_CACHE is None:
        _DEFAULT_TEMPLATE_CACHE = SiteTemplateCache()
    return _DEFAULT_TEMPLATE_CACHE


class Network:
    """The simulated internet: resolvable hosts, latency, content."""

    def __init__(self, seed=0, rtt_ms=45.0, strict=True):
        self.seed = seed
        self.rtt_ms = rtt_ms
        #: strict=True raises DnsError for unregistered hosts; strict=False
        #: models the open internet (any host resolves), which the crawler
        #: uses so third-party endpoints respond without pre-registration.
        self.strict = strict
        self._hosts = {}
        self.requests_seen = []
        #: Pre-warmed (connected) origins — CT pre-initialization (Fig. 7).
        self._warm_origins = set()

    # -- topology ----------------------------------------------------------------

    def register_host(self, host, content_factory=None, extra_latency_ms=0.0):
        """Make a host resolvable; ``content_factory(path) -> bytes``."""
        self._hosts[host.lower()] = (content_factory, extra_latency_ms)

    def register_site(self, site_profile, page_html=b"<html></html>"):
        """Register a top-site profile and its third-party hosts.

        Site response state comes from the process-wide
        :class:`SiteTemplateCache`, so repeated register/fetch cycles
        across app shards share one template per site instead of
        rebuilding identical factories and bodies per Network.
        """
        template = default_site_template_cache().template_for(
            site_profile, page_html
        )
        self.register_host(template.host, template.body,
                           extra_latency_ms=template.extra_latency_ms)
        for third_party in template.third_party_hosts:
            self.register_host(third_party)

    # -- connection warmup ----------------------------------------------------------

    def prewarm(self, url):
        """Pre-initialize a connection (CTs warm up the browser, Fig. 7)."""
        parsed = parse_url_cached(url) if isinstance(url, str) else url
        self._warm_origins.add(parsed.origin)

    def is_warm(self, url):
        parsed = parse_url_cached(url) if isinstance(url, str) else url
        return parsed.origin in self._warm_origins

    # -- request execution -------------------------------------------------------------

    def fetch(self, request, netlog=None, time_ms=0.0):
        """Execute one request; returns a :class:`Response`.

        Raises :class:`~repro.errors.DnsError` for unknown hosts. The
        request and all lifecycle events are recorded.
        """
        if isinstance(request, str):
            request = Request(request)
        self.requests_seen.append(request)
        url = request.url
        host = url.host

        if netlog is not None:
            netlog.log(NetLogEventType.REQUEST_ALIVE, url, time_ms)
            netlog.log(NetLogEventType.URL_REQUEST_START_JOB, url, time_ms,
                       method=request.method)

        if host not in self._hosts:
            if self.strict:
                if netlog is not None:
                    netlog.log(NetLogEventType.REQUEST_FAILED, url, time_ms,
                               error="ERR_NAME_NOT_RESOLVED")
                raise DnsError("cannot resolve %r" % host)
            self._hosts[host] = (None, 0.0)

        content_factory, extra_latency = self._hosts[host]
        rng = make_rng(derive_seed(self.seed, "fetch", str(url),
                                   len(self.requests_seen)))

        latency = self.rtt_ms * rng.uniform(0.8, 1.3)          # request RTT
        if not self.is_warm(url):
            # DNS + TCP + TLS handshakes for a cold origin.
            latency += self.rtt_ms * 0.6 * rng.uniform(0.8, 1.2)   # DNS
            latency += self.rtt_ms * rng.uniform(0.9, 1.1)         # TCP
            if url.is_secure:
                latency += self.rtt_ms * rng.uniform(0.9, 1.2)     # TLS
            self._warm_origins.add(url.origin)
        latency += extra_latency * rng.uniform(0.8, 1.2)

        if netlog is not None:
            netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST, url,
                       time_ms + latency * 0.5,
                       headers=dict(request.headers))

        body = b""
        if content_factory is not None:
            body = content_factory(url.path)
        headers = {"Content-Type": "text/html; charset=utf-8"}

        if netlog is not None:
            netlog.log(NetLogEventType.HTTP_TRANSACTION_READ_HEADERS, url,
                       time_ms + latency * 0.8, status=200)
            netlog.log(NetLogEventType.REQUEST_FINISHED, url,
                       time_ms + latency)
        return Response(url, 200, headers, body, elapsed_ms=latency)
