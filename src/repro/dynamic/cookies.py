"""Cookie stores: the structural reason WebView sessions don't persist.

Table 1's user-experience row: with WebViews "the user needs to
authenticate repeatedly" while CTs restore sessions "using existing
browser cookies". The mechanism is cookie-jar scoping — every app's
WebViews share one `CookieManager` *private to that app*, whereas every
app's CTs share the *browser's* jar. This module implements the WebView
side; :class:`repro.dynamic.customtab_runtime.BrowserSession` is the CT
side.
"""


class WebViewCookieManager:
    """The per-app android.webkit.CookieManager."""

    def __init__(self, app_package):
        self.app_package = app_package
        self._jar = {}  # host -> {name: value}
        self.accept_cookies = True

    def set_cookie(self, host, name, value):
        if not self.accept_cookies:
            return False
        self._jar.setdefault(host.lower(), {})[name] = value
        return True

    def get_cookies(self, host):
        return dict(self._jar.get(host.lower(), {}))

    def get_cookie_header(self, host):
        cookies = self.get_cookies(host)
        if not cookies:
            return None
        return "; ".join("%s=%s" % item for item in sorted(cookies.items()))

    def remove_all_cookies(self):
        self._jar.clear()

    def __repr__(self):
        return "WebViewCookieManager(%s, %d hosts)" % (
            self.app_package, len(self._jar)
        )


class DeviceCookieStores:
    """All cookie stores on one device, scoped the way Android scopes them.

    - :meth:`webview_manager` — one jar per app package (isolated).
    - The browser's jar lives in the CT
      :class:`~repro.dynamic.customtab_runtime.BrowserSession` (shared).
    """

    def __init__(self):
        self._per_app = {}

    def webview_manager(self, app_package):
        if app_package not in self._per_app:
            self._per_app[app_package] = WebViewCookieManager(app_package)
        return self._per_app[app_package]
