"""The android.webkit.WebView runtime.

A behavioural model of a WebView instance: it loads pages through the
simulated network (attaching the ``X-Requested-With`` header carrying the
app's package name), parses them into a DOM, and supports the app-facing
API the paper instruments — ``loadUrl`` (including ``javascript:`` URLs),
``evaluateJavascript``, ``addJavascriptInterface`` and friends. Injected
JS runs in the real interpreter against the page's DOM with Web API
interception active when the page carries the trace script.
"""

from repro.android.api import X_REQUESTED_WITH_HEADER
from repro.errors import JsError, NetworkError
from repro.netstack.network import Request
from repro.web.html5_testpage import TEST_PAGE_URL, build_test_document
from repro.web.htmlparser import parse_html
from repro.web.jsdom import DomBridge
from repro.web.jsengine import (
    JsInterpreter,
    JsObject,
    NativeFunction,
    UNDEFINED,
    taint_enabled,
    taint_sink,
    taint_wrap,
    to_string,
)
from repro.web.webapi import WebApiRecorder

JAVASCRIPT_SCHEME = "javascript:"


class JsBridge:
    """A Java object exposed to page JS via addJavascriptInterface.

    ``methods`` maps method names to Python callables; every invocation is
    recorded so measurements can see bridge traffic (the part the paper
    notes its methodology cannot observe — we surface it for testing).
    """

    def __init__(self, name, methods=None):
        self.name = name
        self.methods = dict(methods or {})
        self.invocations = []

    def as_js_object(self):
        obj = JsObject()
        for method_name, fn in self.methods.items():
            def wrapper(args, this, _name=method_name, _fn=fn):
                if taint_enabled():
                    # Bridge arguments are a sink (data crossing from
                    # page JS into app/Java code) and bridge returns a
                    # source (app state flowing into the page).
                    taint_sink(("bridge_arg", self.name, _name), *args)
                self.invocations.append((_name, [to_string(a) for a in args]))
                result = _fn(*args) if _fn is not None else None
                if result is None:
                    return UNDEFINED
                if taint_enabled():
                    result = taint_wrap(
                        result, {("bridge_ret", self.name, _name)})
                return result
            obj.set(method_name, NativeFunction(
                "%s.%s" % (self.name, method_name), wrapper))
        if not self.methods:
            # An opaque (e.g. obfuscated) bridge still accepts anything.
            def sink(args, this):
                if taint_enabled():
                    taint_sink(("bridge_arg", self.name, "postMessage"),
                               *args)
                self.invocations.append(("postMessage",
                                         [to_string(a) for a in args]))
                return UNDEFINED
            obj.set("postMessage", NativeFunction(
                "%s.postMessage" % self.name, sink))
        return obj


class WebViewRuntime:
    """One WebView instance owned by one app."""

    def __init__(self, app_package, device, settings=None):
        self.app_package = app_package
        self.device = device
        #: The app's private WebView cookie jar (shared by all of this
        #: app's WebViews, invisible to other apps and to the browser).
        self.cookie_manager = device.cookie_stores.webview_manager(
            app_package
        )
        self.netlog = device.new_netlog()
        self.settings = dict(settings or {"javaScriptEnabled": True})
        self.current_url = None
        self.document = None
        self.recorder = WebApiRecorder()
        self._bridge = None
        self._interpreter = None
        self.js_bridges = {}
        self.load_count = 0

    # -- content loading ---------------------------------------------------

    def loadUrl(self, url):
        """Load a URL — or execute JS when given a javascript: URL."""
        if url.startswith(JAVASCRIPT_SCHEME):
            return self.evaluateJavascript(url[len(JAVASCRIPT_SCHEME):],
                                           None)
        if taint_enabled():
            # A tainted URL reaching the network layer is an
            # exfiltration channel (secrets smuggled in the query
            # string become visible to the destination server).
            taint_sink(("network", "loadUrl"), url)
        headers = {
            X_REQUESTED_WITH_HEADER: self.app_package,
            "User-Agent": "Mozilla/5.0 (Linux; Android 12; Pixel 3; wv)",
        }
        cookie_header = None
        if "://" in url:
            host = url.split("://", 1)[1].split("/", 1)[0].split(":", 1)[0]
            cookie_header = self.cookie_manager.get_cookie_header(host)
        if cookie_header:
            headers["Cookie"] = cookie_header
        request = Request(url, headers=headers)
        try:
            response = self.device.network.fetch(
                request, netlog=self.netlog, time_ms=self.device.clock_ms
            )
        except NetworkError:
            self.document = parse_html("<html><body></body></html>", url=url)
        else:
            html = response.body.decode("utf-8", "replace")
            if not html.strip().startswith("<"):
                html = "<html><body>%s</body></html>" % html
            self.document = parse_html(html, url=url)
        self.current_url = url
        self.load_count += 1
        self._bridge = DomBridge(self.document, self.recorder,
                                 clock_ms=self.device.clock_ms,
                                 cookie_header=cookie_header or "")
        self._interpreter = JsInterpreter(self._bridge.globals_map())
        self._expose_bridges()
        return None

    def load_test_page(self):
        """Navigate to the controlled measurement page (3.2.2)."""
        self.document = build_test_document()
        self.current_url = TEST_PAGE_URL
        self.load_count += 1
        host = TEST_PAGE_URL.split("://", 1)[1].split("/", 1)[0]
        self._bridge = DomBridge(
            self.document, self.recorder, clock_ms=self.device.clock_ms,
            cookie_header=self.cookie_manager.get_cookie_header(host) or "",
        )
        self._interpreter = JsInterpreter(self._bridge.globals_map())
        self._expose_bridges()
        return None

    def loadData(self, data, mime_type="text/html", encoding="utf-8"):
        self.document = parse_html(data, url="about:blank")
        self.current_url = "about:blank"
        self.load_count += 1
        self._bridge = DomBridge(self.document, self.recorder,
                                 clock_ms=self.device.clock_ms)
        self._interpreter = JsInterpreter(self._bridge.globals_map())
        self._expose_bridges()
        return None

    def loadDataWithBaseURL(self, base_url, data, mime_type="text/html",
                            encoding="utf-8", history_url=None):
        self.loadData(data, mime_type, encoding)
        self.current_url = base_url
        if self.document is not None:
            self.document.url = base_url
        return None

    def postUrl(self, url, post_data=b""):
        request = Request(url, method="POST", headers={
            X_REQUESTED_WITH_HEADER: self.app_package,
        }, body=post_data)
        self.device.network.fetch(request, netlog=self.netlog,
                                  time_ms=self.device.clock_ms)
        self.current_url = url
        self.load_count += 1
        return None

    # -- JS injection ----------------------------------------------------------

    def evaluateJavascript(self, script, callback=None):
        """Execute JS in the page; async callback gets the result."""
        if self._interpreter is None:
            self.load_test_page()
        if not self.settings.get("javaScriptEnabled", True):
            return None
        try:
            result = self._interpreter.run(script)
        except JsError as exc:
            result = None
            self.device.logcat.log(
                "chromium", "Uncaught (in WebView JS): %s" % exc
            )
        if callback is not None:
            callback(result)
        return result

    def addJavascriptInterface(self, bridge, name=None):
        """Expose a Java object to page JS (the classic attack surface)."""
        if not isinstance(bridge, JsBridge):
            bridge = JsBridge(name or "bridge")
        name = name or bridge.name
        self.js_bridges[name] = bridge
        if self._interpreter is not None:
            self._interpreter.global_scope.declare(
                name, bridge.as_js_object()
            )
        return None

    def removeJavascriptInterface(self, name):
        self.js_bridges.pop(name, None)
        return None

    def _expose_bridges(self):
        for name, bridge in self.js_bridges.items():
            self._interpreter.global_scope.declare(
                name, bridge.as_js_object()
            )

    # -- misc WebView API surface -------------------------------------------------

    def getSettings(self):
        return self.settings

    def setWebViewClient(self, client):
        self.settings["webViewClient"] = client
        return None

    def setWebChromeClient(self, client):
        self.settings["webChromeClient"] = client
        return None

    def getUrl(self):
        return self.current_url

    def getTitle(self):
        if self.document is None:
            return None
        titles = self.document.get_elements_by_tag_name("title")
        return titles[0].text_content() if titles else ""

    def reload(self):
        if self.current_url:
            self.loadUrl(self.current_url)
        return None

    def stopLoading(self):
        return None

    def goBack(self):
        return None

    def goForward(self):
        return None

    def canGoBack(self):
        return False

    def canGoForward(self):
        return False

    def clearCache(self, include_disk_files=True):
        return None

    def clearHistory(self):
        return None

    def setDownloadListener(self, listener):
        return None

    def destroy(self):
        self.document = None
        self._interpreter = None
        return None

    def __repr__(self):
        return "WebViewRuntime(%s @ %s)" % (self.app_package,
                                            self.current_url)
