"""Web API interception — the controlled page's trace script (3.2.2).

The paper hosts an HTML5 test page whose only script overrides all methods
of all Web APIs (per MDN) and reports intercepted calls back to a
measurement server. :class:`WebApiRecorder` plays both roles: the JS
runtime routes every DOM/Web API call through :meth:`record`, and the
"server log" is the recorder's call list, aggregated per interface/method
exactly as Table 9 reports it.
"""


class WebApiCall:
    """One intercepted Web API invocation."""

    __slots__ = ("interface", "method", "args")

    def __init__(self, interface, method, args=()):
        self.interface = interface
        self.method = method
        self.args = tuple(args)

    def __repr__(self):
        return "WebApiCall(%s.%s)" % (self.interface, self.method)

    def __eq__(self, other):
        return (
            isinstance(other, WebApiCall)
            and (self.interface, self.method) == (other.interface, other.method)
        )

    def __hash__(self):
        return hash((self.interface, self.method))


class WebApiRecorder:
    """Collects intercepted Web API calls for one page visit."""

    def __init__(self):
        self.calls = []

    def record(self, interface, method, args=()):
        self.calls.append(WebApiCall(interface, method, args))

    def pairs(self):
        """Distinct (interface, method) pairs, in first-seen order."""
        seen = []
        for call in self.calls:
            pair = (call.interface, call.method)
            if pair not in seen:
                seen.append(pair)
        return seen

    def count(self, interface=None, method=None):
        return sum(
            1 for call in self.calls
            if (interface is None or call.interface == interface)
            and (method is None or call.method == method)
        )

    @property
    def read_only(self):
        """True when no recorded call mutates the DOM (Kik's behaviour)."""
        mutators = {"insertBefore", "appendChild", "removeChild",
                    "setAttribute", "createElement", "write",
                    "replaceChild"}
        return all(call.method not in mutators for call in self.calls)

    def __len__(self):
        return len(self.calls)
