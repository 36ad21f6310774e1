"""The Custom Tabs runtime.

The properties Table 1 credits to CTs are structural here: the page loads
in the *browser's* context with the browser's cookie jar, the hosting app
gets no handle to the DOM and cannot inject JS, the security UI (TLS lock)
is browser-owned, and ``mayLaunchUrl`` pre-warms the connection (the
Figure 7 speedup).
"""

from repro.errors import DeviceError
from repro.netstack.network import Request
from repro.web.htmlparser import parse_html
from repro.web.urls import parse_url


class BrowserSession:
    """The default browser's state shared across every app's CTs."""

    def __init__(self, browser_package="com.android.chrome"):
        self.browser_package = browser_package
        #: host -> {name: value}; one jar shared across apps (Table 1 UX row).
        self.cookies = {}
        self.engagement_signals = []

    def set_cookie(self, host, name, value):
        self.cookies.setdefault(host, {})[name] = value

    def cookies_for(self, host):
        return dict(self.cookies.get(host, {}))


class CustomTabsCallback:
    """The app-facing callback surface of a CT session.

    CTs report *coarse* navigation/engagement events to the hosting app
    (Section 4.1.2: "CTs natively measure similar user engagement
    signals") — and nothing else. Beer et al. [43] showed even this can be
    abused as a cross-site oracle, which is why the event payloads here
    deliberately carry no page content.
    """

    NAVIGATION_STARTED = "NAVIGATION_STARTED"
    NAVIGATION_FINISHED = "NAVIGATION_FINISHED"
    TAB_SHOWN = "TAB_SHOWN"
    TAB_HIDDEN = "TAB_HIDDEN"

    def __init__(self):
        self.events = []
        self.engagement = {"scroll_percentage": 0, "session_duration_ms": 0}

    def on_navigation_event(self, event, extras=None):
        # Only the event kind and timing cross the boundary — no URLs of
        # subresources, no DOM, no cookies.
        self.events.append((event, dict(extras or {})))

    def on_greatest_scroll_percentage_increased(self, percentage):
        self.engagement["scroll_percentage"] = percentage


class CustomTabRuntime:
    """A CustomTabsIntent-launched tab."""

    def __init__(self, app_package, device, browser_session, callback=None):
        self.app_package = app_package
        self.device = device
        self.browser = browser_session
        self.netlog = device.new_netlog()
        self.current_url = None
        self.document = None
        self.tls_lock_shown = False
        self.callback = callback
        self._prewarmed = []

    def mayLaunchUrl(self, url):
        """CT pre-initialization: warm the connection before launch."""
        self.device.network.prewarm(url)
        self._prewarmed.append(url)
        return True

    def launchUrl(self, url):
        """Load the URL in the browser context."""
        parsed = parse_url(url)
        if self.callback is not None:
            self.callback.on_navigation_event(
                CustomTabsCallback.TAB_SHOWN
            )
            self.callback.on_navigation_event(
                CustomTabsCallback.NAVIGATION_STARTED
            )
        cookies = self.browser.cookies_for(parsed.host)
        headers = {"User-Agent": "Mozilla/5.0 (Linux; Android 12) Chrome"}
        if cookies:
            headers["Cookie"] = "; ".join(
                "%s=%s" % item for item in sorted(cookies.items())
            )
        # Note: no X-Requested-With — CT traffic is browser traffic.
        response = self.device.network.fetch(
            Request(url, headers=headers), netlog=self.netlog,
            time_ms=self.device.clock_ms,
        )
        self.current_url = url
        self.tls_lock_shown = parsed.is_secure
        self.document = parse_html(
            response.body.decode("utf-8", "replace") or "<html></html>",
            url=url,
        )
        self.browser.engagement_signals.append(("navigation", url))
        if self.callback is not None:
            self.callback.on_navigation_event(
                CustomTabsCallback.NAVIGATION_FINISHED,
                {"elapsed_ms": response.elapsed_ms},
            )
        return response

    # -- the isolation boundary ----------------------------------------------

    def evaluateJavascript(self, script, callback=None):
        raise DeviceError(
            "Custom Tabs do not expose JS execution to the hosting app"
        )

    def addJavascriptInterface(self, bridge, name=None):
        raise DeviceError(
            "Custom Tabs do not expose JS bridges to the hosting app"
        )

    def get_dom(self):
        raise DeviceError(
            "the hosting app cannot read a Custom Tab's DOM"
        )

    def __repr__(self):
        return "CustomTabRuntime(%s @ %s)" % (self.app_package,
                                              self.current_url)


class PartialCustomTab(CustomTabRuntime):
    """Partial Custom Tabs (Chrome, 2023) — the paper's Section 5 future
    direction for Ad SDKs: a *resizable inline* CT that can render ad or
    auxiliary web content next to native content, keeping the browser-
    context isolation that full-screen CTs provide.

    The tab occupies ``height_px`` of the screen and can be resized or
    expanded to full screen; the hosting app still gets no DOM access.
    """

    #: Bounds imposed by the platform (a partial tab must leave the
    #: app visible, and cannot be arbitrarily tiny).
    MIN_HEIGHT_PX = 50

    def __init__(self, app_package, device, browser_session, height_px=600,
                 screen_height_px=2220, callback=None):
        super().__init__(app_package, device, browser_session,
                         callback=callback)
        self.screen_height_px = screen_height_px
        self.height_px = self._clamp(height_px)
        self.expanded = self.height_px >= self.screen_height_px

    def _clamp(self, height_px):
        return max(self.MIN_HEIGHT_PX,
                   min(int(height_px), self.screen_height_px))

    def resize(self, height_px):
        """User (or app) drags the tab's handle."""
        self.height_px = self._clamp(height_px)
        self.expanded = self.height_px >= self.screen_height_px
        return self.height_px

    def show_ad(self, ad_url):
        """Render ad content — isolated, unlike a WebView ad (4.1.1)."""
        response = self.launchUrl(ad_url)
        # Google's 2024 CT ads beta: monetization + anti-fraud signals
        # come from the browser, not from app-injected JS.
        self.browser.engagement_signals.append(("ad_impression", ad_url))
        return response
