"""Tests for cookie scoping — Table 1's session-persistence asymmetry.

WebView jars are per-app (users re-authenticate in every app); the CT jar
is the browser's, shared by every app's Custom Tabs.
"""

from repro.dynamic.cookies import DeviceCookieStores, WebViewCookieManager
from repro.dynamic.customtab_runtime import BrowserSession, CustomTabRuntime
from repro.dynamic.device import Device
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.netstack.network import Network

SITE = "shop.example.com"
URL = "https://shop.example.com/account"


def lenient_device():
    return Device(network=Network(seed=0, strict=False))


class TestWebViewCookieManager:
    def test_set_and_get(self):
        manager = WebViewCookieManager("com.a")
        assert manager.set_cookie(SITE, "session", "s1")
        assert manager.get_cookies(SITE) == {"session": "s1"}

    def test_header_rendering(self):
        manager = WebViewCookieManager("com.a")
        manager.set_cookie(SITE, "b", "2")
        manager.set_cookie(SITE, "a", "1")
        assert manager.get_cookie_header(SITE) == "a=1; b=2"

    def test_no_cookies_no_header(self):
        assert WebViewCookieManager("com.a").get_cookie_header(SITE) is None

    def test_accept_cookies_toggle(self):
        manager = WebViewCookieManager("com.a")
        manager.accept_cookies = False
        assert not manager.set_cookie(SITE, "x", "1")
        assert manager.get_cookies(SITE) == {}

    def test_remove_all(self):
        manager = WebViewCookieManager("com.a")
        manager.set_cookie(SITE, "x", "1")
        manager.remove_all_cookies()
        assert manager.get_cookies(SITE) == {}

    def test_host_case_insensitive(self):
        manager = WebViewCookieManager("com.a")
        manager.set_cookie("Shop.Example.COM", "x", "1")
        assert manager.get_cookies(SITE) == {"x": "1"}


class TestCookieScoping:
    def test_per_app_isolation(self):
        """App A's WebView login is invisible to app B's WebView."""
        stores = DeviceCookieStores()
        stores.webview_manager("com.app.a").set_cookie(SITE, "session", "sA")
        assert stores.webview_manager("com.app.b").get_cookies(SITE) == {}
        assert (stores.webview_manager("com.app.a")
                is not stores.webview_manager("com.app.b"))

    def test_same_app_webviews_share(self):
        device = lenient_device()
        first = WebViewRuntime("com.app.a", device)
        second = WebViewRuntime("com.app.a", device)
        first.cookie_manager.set_cookie(SITE, "session", "sA")
        assert second.cookie_manager.get_cookies(SITE) == {"session": "sA"}

    def test_webview_sends_its_apps_cookies(self):
        device = lenient_device()
        runtime = WebViewRuntime("com.app.a", device)
        runtime.cookie_manager.set_cookie(SITE, "session", "sA")
        runtime.loadUrl(URL)
        request = device.network.requests_seen[-1]
        assert request.headers.get("Cookie") == "session=sA"

    def test_other_apps_webview_sends_nothing(self):
        device = lenient_device()
        logged_in = WebViewRuntime("com.app.a", device)
        logged_in.cookie_manager.set_cookie(SITE, "session", "sA")
        other = WebViewRuntime("com.app.b", device)
        other.loadUrl(URL)
        request = device.network.requests_seen[-1]
        assert "Cookie" not in request.headers

    def test_ct_sessions_shared_across_apps(self):
        """The CT advantage: any app's CT sees the browser login."""
        device = lenient_device()
        browser = BrowserSession()
        browser.set_cookie(SITE, "session", "browser-login")
        for package in ("com.app.a", "com.app.b"):
            tab = CustomTabRuntime(package, device, browser)
            tab.launchUrl(URL)
            request = device.network.requests_seen[-1]
            assert "session=browser-login" in request.headers["Cookie"]

    def test_webview_cannot_see_browser_session(self):
        """The repeated-authentication pain, end to end."""
        device = lenient_device()
        browser = BrowserSession()
        browser.set_cookie(SITE, "session", "browser-login")
        runtime = WebViewRuntime("com.app.a", device)
        runtime.loadUrl(URL)
        request = device.network.requests_seen[-1]
        assert "Cookie" not in request.headers
        assert browser.cookies_for(SITE) == {"session": "browser-login"}
