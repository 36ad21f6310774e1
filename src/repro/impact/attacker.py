"""Per-bridge attacker models, replayed through the real runtimes.

Two adversaries are evaluated against every bridge the Frida hooks
observe:

* ``sdk`` — the injected-SDK script itself: it already runs in the
  page context, so its capability is whatever the page context yields.
* ``mitm`` — a network man-in-the-middle who can rewrite any
  cleartext-HTTP response (``Url.scheme == "http"`` in the NetLog) and
  thereby plant the same page-context script. Without a cleartext
  visit the MITM never gets a foothold and scores ``none``.

Probes execute against the *real* objects: the app's
:class:`~repro.dynamic.webview_runtime.JsBridge` instances inside a
:class:`~repro.dynamic.webview_runtime.WebViewRuntime`, with the taint
layer (:mod:`repro.web.jsengine`) recording source->sink flows. Custom
Tabs raise :class:`~repro.errors.DeviceError` on every injection
surface, so CT apps correctly score zero.
"""

import contextlib

from repro.dynamic.device import Device
from repro.dynamic.frida import FridaSession
from repro.dynamic.iab import IabKind
from repro.dynamic.measurements import IabMeasurement
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.errors import DeviceError, NetworkError
from repro.impact.severity import SEVERITY_NONE, grade_severity, severity_rank
from repro.netstack.network import Network
from repro.web.html5_testpage import HTML5_TEST_PAGE, TEST_PAGE_URL
from repro.web.jsengine import (
    record_taint_flows,
    taint_labels,
    taint_override,
)
from repro.web.urls import parse_url, parse_url_cached

ATTACKER_SDK = "sdk"
ATTACKER_MITM = "mitm"

#: Evaluation order: the SDK already has page context; the MITM needs a
#: cleartext visit to gain it.
ATTACKERS = (ATTACKER_SDK, ATTACKER_MITM)


def cleartext_urls(urls):
    """The subset of NetLog URLs a MITM can rewrite (cleartext HTTP).

    Only ``http://`` counts — HTTPS visits are integrity-protected.
    Unparseable URLs are skipped (they never left the device).
    """
    exposed = []
    for url_text in urls:
        try:
            url = parse_url_cached(url_text)
        except NetworkError:
            continue
        if url.scheme == "http":
            exposed.append(url_text)
    return exposed


class BridgeFinding:
    """One (app, SDK, bridge, attacker) capability observation.

    Plain picklable record: shards ship findings across the process
    boundary and the parent merges them in selection order.
    """

    __slots__ = ("app", "package", "sdk", "bridge", "attacker", "severity",
                 "readable", "invocable", "flow_count", "methods",
                 "cleartext")

    def __init__(self, app, package, sdk, bridge, attacker, severity,
                 readable=(), invocable=(), flow_count=0, methods=(),
                 cleartext=False):
        self.app = app
        self.package = package
        self.sdk = sdk
        self.bridge = bridge
        self.attacker = attacker
        self.severity = severity
        #: Sorted read-channel kinds (e.g. ("cookie", "dom", "webapi")).
        self.readable = tuple(readable)
        #: Bridge methods the attacker successfully invoked.
        self.invocable = tuple(invocable)
        #: Observed source->sink taint flows during the probe.
        self.flow_count = flow_count
        #: The bridge's exposed method list (from the Frida hooks).
        self.methods = tuple(methods)
        #: Whether the app's network log was MITM-writable.
        self.cleartext = cleartext

    @property
    def rank(self):
        return severity_rank(self.severity)

    def __repr__(self):
        return "BridgeFinding(%s/%s %s: %s)" % (
            self.app, self.bridge, self.attacker, self.severity
        )


class AppImpact:
    """Everything the probe learned about one app (picklable)."""

    __slots__ = ("app", "package", "kind", "cleartext_count", "findings")

    def __init__(self, app, package, kind, cleartext_count=0, findings=()):
        self.app = app
        self.package = package
        #: "webview" | "custom_tab" | "browser" | "synthetic"
        self.kind = kind
        self.cleartext_count = cleartext_count
        self.findings = list(findings)

    def __repr__(self):
        return "AppImpact(%s, %s, %d findings)" % (
            self.app, self.kind, len(self.findings)
        )


def _sdk_label(bridge_name, bridge_methods):
    """Attribute a bridge to an SDK, reusing the Table 8 heuristics
    (name markers first, then the exposed-method fallback)."""
    shim = IabMeasurement(None)
    shim.injected_bridges = [bridge_name]
    shim.injected_bridge_methods = {bridge_name: tuple(bridge_methods)}
    return shim.inferred_bridge_intents()[0]


_READ_PROBES = (
    ("cookie", "document.cookie"),
    ("dom", "document.body.textContent"),
    ("webapi", "navigator.userAgent"),
)

#: The exfiltration payload planted by the attacker page script: read
#: every secret channel, then push the blob through the bridge method.
_EXFIL_PROBE = (
    "var __secret = '' + document.cookie + '|' + navigator.userAgent;\n"
    "%(bridge)s.%(method)s('probe:' + __secret);"
)


def _probe_page_context(runtime, bridge_name, methods):
    """Run the page-context attacker against one bridge.

    Returns ``(readable, invocable, flow_count)``: the read channels
    that yielded tainted values, the methods whose invocation registered
    on the real bridge object, and the taint flows observed into bridge
    sinks. Raises DeviceError when the runtime offers no JS surface
    (Custom Tabs).
    """
    readable = []
    for kind, expression in _READ_PROBES:
        value = runtime.evaluateJavascript(expression)
        if taint_labels(value):
            readable.append(kind)
    bridge = runtime.js_bridges.get(bridge_name)
    invocable = []
    flows = []
    with record_taint_flows(flows):
        for method in methods:
            before = len(bridge.invocations) if bridge is not None else 0
            runtime.evaluateJavascript(_EXFIL_PROBE % {
                "bridge": bridge_name, "method": method,
            })
            after = len(bridge.invocations) if bridge is not None else 0
            if after > before:
                invocable.append(method)
    flow_count = sum(
        1 for sink, _labels in flows
        if sink[0] in ("bridge_arg", "network")
    )
    return tuple(sorted(readable)), tuple(invocable), flow_count


def probe_app(app, seed=0, tracer=None):
    """Evaluate both attackers against every bridge of one app.

    Deterministic: a fresh simulated device/network per app (the
    measurement-harness pattern), taint instrumentation forced on for
    the probes only, findings emitted in bridge registration order with
    the SDK attacker before the MITM.
    """
    kind = getattr(app, "iab_kind", None)
    if kind is None:
        # Synthetic corpus filler: no IAB, no bridges, nothing to score.
        return AppImpact(app.name, app.package, "synthetic")
    if kind == IabKind.BROWSER:
        return AppImpact(app.name, app.package, "browser")
    if kind == IabKind.CUSTOM_TAB:
        return _probe_custom_tab(app, seed)
    return _probe_webview(app, seed, tracer)


def _probe_custom_tab(app, seed):
    """CT apps: attempt the injection surface, expect the wall.

    The probe genuinely exercises the boundary — every injection entry
    point must raise DeviceError — and the app scores zero findings.
    """
    device = _fresh_device(seed)
    device.install(app)
    event = app.open_link(device, TEST_PAGE_URL)
    runtime = event.runtime
    for attempt in (
        lambda: runtime.evaluateJavascript("document.cookie"),
        lambda: runtime.addJavascriptInterface(None, "probe"),
        lambda: runtime.get_dom(),
    ):
        try:
            attempt()
        except DeviceError:
            continue
        raise AssertionError(
            "Custom Tab runtime exposed an injection surface"
        )
    cleartext = cleartext_urls(runtime.netlog.urls())
    return AppImpact(app.name, app.package, "custom_tab",
                     cleartext_count=len(cleartext))


def _probe_webview(app, seed, tracer=None):
    """The full WebView probe: open the controlled page, let the app
    inject, then drive each observed bridge as both attackers."""
    with taint_override(True):
        device = _fresh_device(seed)
        device.install(app)
        runtime = WebViewRuntime(app.package, device)
        frida = FridaSession().attach(runtime)
        app.open_link(device, TEST_PAGE_URL, runtime=runtime)

        bridge_methods = frida.injected_bridge_methods()
        cleartext = cleartext_urls(runtime.netlog.urls())
        exposed = bool(cleartext)
        impact = AppImpact(app.name, app.package, "webview",
                           cleartext_count=len(cleartext))
        for bridge_name, methods in bridge_methods.items():
            if tracer is not None:
                span_cm = tracer.span("probe", bridge=bridge_name)
            else:
                span_cm = _null_cm()
            with span_cm:
                readable, invocable, flow_count = _probe_page_context(
                    runtime, bridge_name, methods
                )
            sdk = _sdk_label(bridge_name, methods)
            impact.findings.append(BridgeFinding(
                app.name, app.package, sdk, bridge_name, ATTACKER_SDK,
                grade_severity(readable, invocable, flow_count),
                readable=readable, invocable=invocable,
                flow_count=flow_count, methods=methods,
                cleartext=exposed,
            ))
            # The MITM inherits the page context only when a cleartext
            # visit gives them a page to rewrite.
            if exposed:
                impact.findings.append(BridgeFinding(
                    app.name, app.package, sdk, bridge_name, ATTACKER_MITM,
                    grade_severity(readable, invocable, flow_count),
                    readable=readable, invocable=invocable,
                    flow_count=flow_count, methods=methods,
                    cleartext=True,
                ))
            else:
                impact.findings.append(BridgeFinding(
                    app.name, app.package, sdk, bridge_name, ATTACKER_MITM,
                    SEVERITY_NONE, methods=methods, cleartext=False,
                ))
        return impact


def _fresh_device(seed):
    network = Network(seed=seed, strict=False)
    host = parse_url(TEST_PAGE_URL).host
    network.register_host(
        host, lambda path: HTML5_TEST_PAGE.encode("utf-8")
    )
    return Device(network=network)


@contextlib.contextmanager
def _null_cm():
    yield None
