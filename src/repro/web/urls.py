"""URL parsing and normalization, implemented from scratch.

Covers what the pipelines need: scheme/host/port/path/query/fragment
splitting, userinfo extraction (for the embedded-credentials flag),
default ports, registrable-domain extraction (with a small multi-label
public-suffix list and IP-literal awareness), and origin comparison.
"""

import collections

from repro.errors import NetworkError

DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443}

#: Multi-label public suffixes we recognize (enough for realistic hosts).
_MULTI_LABEL_SUFFIXES = frozenset(
    {
        "co.uk", "org.uk", "ac.uk", "com.au", "com.br", "co.jp", "co.kr",
        "com.cn", "co.in", "com.mx", "com.tr", "com.ar",
    }
)


def is_ip_literal(host):
    """True when ``host`` is an IPv4 dotted quad or an IPv6 literal.

    IP addresses have no label hierarchy: ``10.0.0.1`` and ``172.16.0.1``
    must never reduce to a shared "registrable domain" (``0.1``) the way
    ``a.example.com`` reduces to ``example.com``.
    """
    if not host:
        return False
    # IPv6 literals keep a ":" (parse_url strips the brackets).
    if ":" in host:
        return True
    labels = host.split(".")
    if len(labels) != 4:
        return False
    for label in labels:
        if not label.isdigit():
            return False
        if len(label) > 1 and label[0] == "0":
            return False
        if int(label) > 255:
            return False
    return True


_HEX_DIGITS = "0123456789abcdefABCDEF"


def percent_decode(text, plus_as_space=True):
    """Decode ``%XX`` escapes (and optionally ``+`` as space).

    Malformed escapes (``%G1``, trailing ``%``) pass through verbatim —
    query strings in the wild are full of them and the analyses must not
    crash on a tracker's sloppy encoder.
    """
    if "%" not in text and "+" not in text:
        return text
    out = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "+" and plus_as_space:
            out.append(" ")
            index += 1
            continue
        if char == "%":
            pair = text[index + 1:index + 3]
            if (len(pair) == 2 and pair[0] in _HEX_DIGITS
                    and pair[1] in _HEX_DIGITS):
                out.append(chr(int(pair, 16)))
                index += 3
                continue
        out.append(char)
        index += 1
    return "".join(out)


class Url:
    """A parsed absolute URL.

    ``userinfo`` is the RFC 3986 ``user:password`` component when the
    URL embeds credentials; it is deliberately excluded from ``origin``
    and ``__str__`` so credentials never leak into logs, metrics or
    stored endpoint rows — consumers that care test ``has_credentials``.
    """

    __slots__ = ("scheme", "host", "port", "path", "query", "fragment",
                 "userinfo")

    def __init__(self, scheme, host, port=None, path="/", query="",
                 fragment="", userinfo=""):
        self.scheme = scheme.lower()
        self.host = host.lower()
        self.port = port if port is not None else DEFAULT_PORTS.get(self.scheme)
        self.path = path or "/"
        self.query = query
        self.fragment = fragment
        self.userinfo = userinfo

    @property
    def origin(self):
        # Schemes without a default port (intent://, market://, ...) have
        # no port at all; omit the component rather than render ":None".
        if self.port is None:
            return "%s://%s" % (self.scheme, self.host)
        return "%s://%s:%s" % (self.scheme, self.host, self.port)

    @property
    def is_secure(self):
        return self.scheme in ("https", "wss")

    @property
    def has_credentials(self):
        """True when the URL embeds userinfo (``http://user:pw@host/``)."""
        return bool(self.userinfo)

    @property
    def registrable_domain(self):
        """eTLD+1: the privacy-relevant owner domain of the host.

        IP literals and hosts that *are* a public suffix have no owner
        hierarchy — the full host is returned so two unrelated addresses
        never compare same-site through a truncated tail.
        """
        host = self.host
        if is_ip_literal(host):
            return host
        if host in _MULTI_LABEL_SUFFIXES:
            return host
        labels = host.split(".")
        if len(labels) <= 2:
            return host
        last_two = ".".join(labels[-2:])
        if last_two in _MULTI_LABEL_SUFFIXES:
            return ".".join(labels[-3:])
        return last_two

    def same_site(self, other):
        """True when both URLs share a registrable domain (same-site)."""
        return self.registrable_domain == other.registrable_domain

    @property
    def query_params(self):
        """Decoded query parameters as an ordered ``{key: [values]}``.

        Every value of a repeated key is kept, in document order, and
        both keys and values are percent-decoded (``+`` means space) —
        tracking-parameter analysis counts ``?id=a&id=b`` as two values,
        not one.
        """
        params = {}
        if not self.query:
            return params
        for pair in self.query.split("&"):
            if not pair:
                continue
            if "=" in pair:
                key, value = pair.split("=", 1)
            else:
                key, value = pair, ""
            key = percent_decode(key)
            value = percent_decode(value)
            params.setdefault(key, []).append(value)
        return params

    def __str__(self):
        netloc = self.host
        if self.port not in (None, DEFAULT_PORTS.get(self.scheme)):
            netloc += ":%d" % self.port
        text = "%s://%s%s" % (self.scheme, netloc, self.path)
        if self.query:
            text += "?" + self.query
        if self.fragment:
            text += "#" + self.fragment
        return text

    def __eq__(self, other):
        return (isinstance(other, Url) and str(self) == str(other)
                and self.userinfo == other.userinfo)

    def __hash__(self):
        return hash(str(self))

    def __repr__(self):
        return "Url(%s)" % self


def parse_url(text):
    """Parse an absolute URL string into a :class:`Url`.

    Raises :class:`~repro.errors.NetworkError` for relative or malformed
    URLs (the network substrate never guesses).
    """
    if "://" not in text:
        raise NetworkError("not an absolute URL: %r" % text)
    scheme, rest = text.split("://", 1)
    if not scheme or not scheme.replace("+", "").replace("-", "").isalnum():
        raise NetworkError("bad scheme in %r" % text)

    fragment = ""
    if "#" in rest:
        rest, fragment = rest.split("#", 1)
    query = ""
    if "?" in rest:
        rest, query = rest.split("?", 1)
    if "/" in rest:
        netloc, path = rest.split("/", 1)
        path = "/" + path
    else:
        netloc, path = rest, "/"
    if not netloc:
        raise NetworkError("missing host in %r" % text)

    # Userinfo comes off first: "user:secret@host" must not feed the
    # port split below ("secret@host" is not a port number).
    userinfo = ""
    if "@" in netloc:
        userinfo, netloc = netloc.rsplit("@", 1)
        if not netloc:
            raise NetworkError("missing host in %r" % text)

    port = None
    host = netloc
    if netloc.startswith("["):
        # Bracketed IPv6 literal, optionally with a port after "]".
        end = netloc.find("]")
        if end < 0:
            raise NetworkError("unterminated IPv6 literal in %r" % text)
        host = netloc[1:end]
        port_text = netloc[end + 1:]
        if port_text:
            if not port_text.startswith(":"):
                raise NetworkError("bad port in %r" % text)
            port = _parse_port(port_text[1:], text)
    elif ":" in netloc:
        host, port_text = netloc.rsplit(":", 1)
        port = _parse_port(port_text, text)
    if not host:
        raise NetworkError("missing host in %r" % text)
    return Url(scheme, host, port, path, query, fragment, userinfo)


def _parse_port(port_text, text):
    try:
        port = int(port_text)
    except ValueError:
        raise NetworkError("bad port in %r" % text)
    if not 0 < port < 65536:
        raise NetworkError("port out of range in %r" % text)
    return port


#: Bound on the interned-parse memo below; the crawl's URL universe
#: (sites x resources x trackers) is far smaller than this.
_PARSE_CACHE_MAX = 4096

_PARSE_CACHE = collections.OrderedDict()


def parse_url_cached(text):
    """Parse with interning: repeated parses of one string share one Url.

    The crawl re-parses the same landing/resource/tracker URLs for every
    app visiting a site; :class:`Url` is immutable in practice (nothing
    in the pipelines assigns to its fields), so a bounded LRU memo is
    safe. Parse errors are not cached — the error path stays identical
    to :func:`parse_url`.
    """
    cached = _PARSE_CACHE.get(text)
    if cached is not None:
        _PARSE_CACHE.move_to_end(text)
        return cached
    url = parse_url(text)
    _PARSE_CACHE[text] = url
    while len(_PARSE_CACHE) > _PARSE_CACHE_MAX:
        _PARSE_CACHE.popitem(last=False)
    return url
