"""Chrome NetLog-style event logging (Section 3.2.2).

The paper records network logs directly from Chrome's network stack on a
rooted device, capturing detailed per-WebView-instance logs rather than
device-wide traffic. :class:`NetLog` is that per-instance log: a typed
event stream over request lifecycles that the crawler snapshots (as a
:class:`NetLogBlock` on the visit's span) and purges between visits.
"""

import enum
import marshal


class NetLogEventType(enum.Enum):
    REQUEST_ALIVE = "REQUEST_ALIVE"
    URL_REQUEST_START_JOB = "URL_REQUEST_START_JOB"
    HTTP_TRANSACTION_SEND_REQUEST = "HTTP_TRANSACTION_SEND_REQUEST"
    HTTP_TRANSACTION_READ_HEADERS = "HTTP_TRANSACTION_READ_HEADERS"
    REQUEST_REDIRECTED = "REQUEST_REDIRECTED"
    REQUEST_FAILED = "REQUEST_FAILED"
    REQUEST_FINISHED = "REQUEST_FINISHED"


class NetLogEvent:
    __slots__ = ("event_type", "url", "time_ms", "details")

    def __init__(self, event_type, url, time_ms, details=None):
        self.event_type = event_type
        self.url = url
        self.time_ms = time_ms
        self.details = dict(details or {})

    def __repr__(self):
        return "NetLogEvent(%s, %s, %.1fms)" % (
            self.event_type.value, self.url, self.time_ms
        )

    def to_dict(self):
        """A JSON-able record (the trace exporter attaches these to spans)."""
        return {
            "type": self.event_type.value,
            "url": self.url,
            "time_ms": self.time_ms,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            NetLogEventType(data["type"]), data["url"], data["time_ms"],
            data.get("details"),
        )


class NetLog:
    """One WebView/CT instance's network log."""

    def __init__(self, source_id=0):
        self.source_id = source_id
        self.events = []

    def log(self, event_type, url, time_ms, **details):
        self.events.append(NetLogEvent(event_type, str(url), time_ms, details))

    def urls(self, event_type=None):
        """Distinct URLs in first-seen order, optionally for one event type."""
        seen = []
        for event in self.events:
            if event_type is not None and event.event_type != event_type:
                continue
            if event.url not in seen:
                seen.append(event.url)
        return seen

    def hosts(self):
        """Distinct contacted hosts in first-seen order."""
        seen = []
        for url in self.urls(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST):
            host = _host_of(url)
            if host and host not in seen:
                seen.append(host)
        return seen

    def purge(self):
        """Clear the log (the crawler purges between site visits)."""
        self.events = []

    def to_dict(self):
        """Structured export of the whole log; round-trips via from_dict."""
        return {
            "source_id": self.source_id,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data):
        log = cls(source_id=data.get("source_id", 0))
        log.events = [
            NetLogEvent.from_dict(event) for event in data.get("events", [])
        ]
        return log

    def __len__(self):
        return len(self.events)


class NetLogBlock:
    """A NetLog's events, kept compactly as a trace span's events.

    A crawl keeps every visit's NetLog in its trace, ~140 events a
    visit. Held as span-event dicts, each event costs three dicts and
    its own copy of the URL. A block holds a visit's events as one flat
    tuple of ``(type, url, time, details)`` fields, keeps each URL
    string once and each distinct details mapping once, and is
    immutable.

    Iterating renders the span-event dicts, fresh on every pass:
    ``{"name": type, "time": time_ms, "attributes": {"url": ...,
    "details": {...}}}``. A span whose ``events`` is a block therefore
    exports exactly what the per-event dicts exported. Details are
    stored marshalled, which keeps exact builtin types (a tuple stays a
    tuple, 1 stays an int) and rejects any other type; such details are
    kept as a plain copy instead.
    """

    __slots__ = ("_fields",)

    def __init__(self, events):
        urls = {}
        details = {}
        fields = []
        for event in events:
            fields += (event.event_type.value,
                       urls.setdefault(event.url, event.url),
                       event.time_ms, _frozen(event.details, details))
        self._fields = tuple(fields)

    def __len__(self):
        return len(self._fields) // 4

    def __iter__(self):
        fields = iter(self._fields)
        for name, url, time_ms, details in zip(fields, fields, fields,
                                               fields):
            if isinstance(details, bytes):
                details = marshal.loads(details)
            else:
                details = dict(details)
            yield {"name": name, "time": time_ms,
                   "attributes": {"url": url, "details": details}}


def _frozen(details, seen):
    """``details`` marshalled, one bytes object per distinct value in
    ``seen``; a plain copy when marshal cannot hold a value exactly.

    Version 2 writes no back-references, so equal values marshal to
    equal bytes.
    """
    try:
        blob = marshal.dumps(details, 2)
    except ValueError:
        return dict(details)
    return seen.setdefault(blob, blob)


def _host_of(url):
    if "://" not in url:
        return None
    rest = url.split("://", 1)[1]
    return rest.split("/", 1)[0].split(":", 1)[0]
