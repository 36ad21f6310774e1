"""Tests for the dynamic pipeline: device, runtimes, Frida, IAB apps."""

import pytest

from repro.android.api import X_REQUESTED_WITH_HEADER
from repro.android.intents import IntentResolution
from repro.dynamic import (
    CustomTabRuntime,
    Device,
    FridaSession,
    IabKind,
    JsBridge,
    WebViewRuntime,
)
from repro.dynamic.apps import real_app_profiles, webview_iab_profiles
from repro.dynamic.customtab_runtime import BrowserSession
from repro.dynamic.measurements import IabMeasurementHarness
from repro.errors import DeviceError, HookError
from repro.netstack.network import Network
from repro.web.html5_testpage import HTML5_TEST_PAGE, TEST_PAGE_URL


def make_device():
    network = Network(seed=0, strict=False)
    network.register_host(
        "measurement.example.org",
        lambda path: HTML5_TEST_PAGE.encode("utf-8"),
    )
    return Device(network=network)


class TestDevice:
    def test_install_and_lookup(self):
        device = make_device()
        app = real_app_profiles()[0]
        device.install(app)
        assert device.app(app.package) is app

    def test_missing_app_raises(self):
        with pytest.raises(DeviceError):
            make_device().app("com.none")

    def test_web_uri_goes_to_browser(self):
        device = make_device()
        resolution = device.open_url_via_intent("https://example.com/")
        assert resolution.kind == IntentResolution.BROWSER

    def test_logcat_records_intents(self):
        device = make_device()
        device.open_url_via_intent("https://example.com/")
        assert any("https://example.com/" in message
                   for _, message in device.logcat.lines)

    def test_netlog_requires_root(self):
        device = make_device()
        device.rooted = False
        with pytest.raises(DeviceError):
            device.new_netlog()


class TestWebViewRuntime:
    def test_load_url_fetches_with_header(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadUrl(TEST_PAGE_URL)
        request = device.network.requests_seen[-1]
        assert request.headers[X_REQUESTED_WITH_HEADER] == "com.test.app"
        assert runtime.getTitle() == "HTML5 Test Page"

    def test_javascript_scheme_executes(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadUrl(TEST_PAGE_URL)
        runtime.loadUrl("javascript:window.__marker = 42;")
        value = runtime.evaluateJavascript("window.__marker")
        assert value == 42.0

    def test_evaluate_javascript_callback(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadUrl(TEST_PAGE_URL)
        results = []
        runtime.evaluateJavascript("1 + 1", results.append)
        assert results == [2.0]

    def test_js_disabled_blocks_execution(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device,
                                 settings={"javaScriptEnabled": False})
        runtime.loadUrl(TEST_PAGE_URL)
        assert runtime.evaluateJavascript("1 + 1") is None

    def test_js_bridge_reachable_from_page(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        received = []
        bridge = JsBridge("native", {
            "send": lambda *args: received.append(args)
        })
        runtime.addJavascriptInterface(bridge, "native")
        runtime.loadUrl(TEST_PAGE_URL)
        runtime.evaluateJavascript("native.send('secret', 7)")
        assert bridge.invocations[0][0] == "send"
        assert received

    def test_bridge_survives_navigation(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.addJavascriptInterface(JsBridge("api"), "api")
        runtime.loadUrl(TEST_PAGE_URL)
        assert runtime.evaluateJavascript("typeof api") == "object"

    def test_remove_javascript_interface(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.addJavascriptInterface(JsBridge("api"), "api")
        runtime.removeJavascriptInterface("api")
        runtime.loadUrl(TEST_PAGE_URL)
        assert runtime.evaluateJavascript("typeof api") == "undefined"

    def test_load_data(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadData("<html><body><p id='x'>inline</p></body></html>")
        assert runtime.document.get_element_by_id("x") is not None

    def test_load_data_with_base_url(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadDataWithBaseURL("https://base.example/",
                                    "<html><body></body></html>")
        assert runtime.getUrl() == "https://base.example/"

    def test_recorder_sees_page_api_calls(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        runtime.loadUrl(TEST_PAGE_URL)
        runtime.evaluateJavascript("document.getElementById('title')")
        assert ("Document", "getElementById") in runtime.recorder.pairs()


class TestCustomTabRuntime:
    def make_runtime(self):
        device = make_device()
        browser = BrowserSession()
        return device, browser, CustomTabRuntime("com.app", device, browser)

    def test_launch_url_loads_in_browser_context(self):
        device, browser, runtime = self.make_runtime()
        response = runtime.launchUrl(TEST_PAGE_URL)
        assert response.ok
        assert runtime.tls_lock_shown
        request = device.network.requests_seen[-1]
        # Browser traffic carries no app header.
        assert X_REQUESTED_WITH_HEADER not in request.headers

    def test_browser_cookies_attach(self):
        device, browser, runtime = self.make_runtime()
        browser.set_cookie("measurement.example.org", "session", "abc123")
        runtime.launchUrl(TEST_PAGE_URL)
        request = device.network.requests_seen[-1]
        assert "session=abc123" in request.headers.get("Cookie", "")

    def test_no_js_injection_possible(self):
        _, _, runtime = self.make_runtime()
        with pytest.raises(DeviceError):
            runtime.evaluateJavascript("document.cookie")
        with pytest.raises(DeviceError):
            runtime.addJavascriptInterface(JsBridge("x"), "x")
        with pytest.raises(DeviceError):
            runtime.get_dom()

    def test_prewarm_speeds_launch(self):
        device, browser, runtime = self.make_runtime()
        runtime.mayLaunchUrl(TEST_PAGE_URL)
        warm = runtime.launchUrl(TEST_PAGE_URL)

        device2, browser2, runtime2 = self.make_runtime()
        cold = runtime2.launchUrl(TEST_PAGE_URL)
        assert warm.elapsed_ms < cold.elapsed_ms

    def test_engagement_signals_recorded(self):
        _, browser, runtime = self.make_runtime()
        runtime.launchUrl(TEST_PAGE_URL)
        assert browser.engagement_signals[0][0] == "navigation"


class TestFrida:
    def test_hooks_record_calls_and_args(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.loadUrl(TEST_PAGE_URL)
        runtime.evaluateJavascript("1+1")
        assert "loadUrl" in session.methods_called()
        assert session.arguments_of("loadUrl") == [TEST_PAGE_URL]
        assert session.arguments_of("evaluateJavascript") == ["1+1"]

    def test_double_attach_rejected(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        with pytest.raises(HookError):
            session.attach(runtime)

    def test_injected_scripts_covers_both_routes(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.loadUrl(TEST_PAGE_URL)
        runtime.evaluateJavascript("var a = 1;")
        runtime.loadUrl("javascript:var b = 2;")
        scripts = session.injected_scripts()
        assert "var a = 1;" in scripts
        assert "var b = 2;" in scripts

    def test_injected_bridges(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.addJavascriptInterface(JsBridge("fbpayIAWBridge"),
                                       "fbpayIAWBridge")
        assert session.injected_bridges() == ["fbpayIAWBridge"]

    def test_hooked_methods_still_work(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        FridaSession().attach(runtime)
        runtime.loadUrl(TEST_PAGE_URL)
        assert runtime.getTitle() == "HTML5 Test Page"

    def test_injected_bridge_methods_captured(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.addJavascriptInterface(
            JsBridge("api", {"beta": None, "alpha": None}), "api")
        # Registration order of the methods dict, not alphabetical —
        # stable across runs because the profiles are literals.
        assert session.injected_bridge_methods() == {
            "api": ("beta", "alpha"),
        }

    def test_bridge_without_methods_reports_postmessage(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.addJavascriptInterface(JsBridge("a0"), "a0")
        assert session.injected_bridge_methods() == {"a0": ("postMessage",)}

    def test_bridge_methods_track_multiple_bridges(self):
        device = make_device()
        runtime = WebViewRuntime("com.test.app", device)
        session = FridaSession().attach(runtime)
        runtime.addJavascriptInterface(JsBridge("pay", {"charge": None}),
                                       "pay")
        runtime.addJavascriptInterface(JsBridge("ads"), "ads")
        methods = session.injected_bridge_methods()
        assert list(methods) == ["pay", "ads"]
        assert methods["pay"] == ("charge",)
        assert methods["ads"] == ("postMessage",)


class TestRealAppProfiles:
    def test_eleven_profiles(self):
        assert len(real_app_profiles()) == 11

    def test_ten_webview_iabs(self):
        assert len(webview_iab_profiles()) == 10

    def test_discord_is_the_only_ct(self):
        ct_apps = [p for p in real_app_profiles()
                   if p.iab_kind == IabKind.CUSTOM_TAB]
        assert [p.name for p in ct_apps] == ["Discord"]

    def test_facebook_never_raises_intent(self):
        device = make_device()
        facebook = [p for p in real_app_profiles()
                    if p.name == "Facebook"][0]
        event = facebook.open_link(device, TEST_PAGE_URL)
        assert event.kind == IabKind.WEBVIEW
        assert not event.intent_raised
        assert any("no intent" in message
                   for _, message in device.logcat.lines)

    def test_discord_opens_ct(self):
        device = make_device()
        discord = [p for p in real_app_profiles() if p.name == "Discord"][0]
        event = discord.open_link(device, TEST_PAGE_URL)
        assert event.kind == IabKind.CUSTOM_TAB
        assert event.runtime.tls_lock_shown

    def test_facebook_uses_redirector(self):
        device = make_device()
        facebook = [p for p in real_app_profiles()
                    if p.name == "Facebook"][0]
        facebook.open_link(device, TEST_PAGE_URL)
        urls = [str(r.url) for r in device.network.requests_seen]
        assert any("lm.facebook.com" in url for url in urls)

    def test_surfaces_match_table8(self):
        surfaces = {p.name: p.surface for p in real_app_profiles()}
        assert surfaces["Facebook"] == "Post"
        assert surfaces["Instagram"] == "DM"
        assert surfaces["Snapchat"] == "Story"
        assert surfaces["Moj"] == "Profile"
        assert surfaces["Chingari"] == "Bio"


class TestMeasurementHarness:
    @pytest.fixture(scope="class")
    def measurements(self):
        return IabMeasurementHarness(seed=1).run()

    def test_all_ten_measured(self, measurements):
        assert len(measurements) == 10

    def test_no_injection_apps(self, measurements):
        """Snapchat, Twitter and Reddit injected nothing (4.2)."""
        for name in ("Snapchat", "Twitter", "Reddit"):
            assert measurements[name].no_injection

    def test_pinterest_obfuscated_bridge_only(self, measurements):
        pinterest = measurements["Pinterest"]
        assert not pinterest.performed_js_injection
        assert pinterest.inferred_bridge_intents() == ["(Obfuscated)"]

    def test_facebook_intents(self, measurements):
        facebook = measurements["Facebook"]
        scripts = facebook.inferred_script_intents()
        assert "Insert FB Autofill SDK JS script." in scripts
        assert "Returns simHash for page to detect cloaking." in scripts
        assert "Returns DOM tag counts." in scripts
        assert "Logs performance metrics." in scripts
        bridges = facebook.inferred_bridge_intents()
        assert "Facebook Pay." in bridges
        assert "Meta Checkout." in bridges

    def test_facebook_instagram_identical(self, measurements):
        assert (measurements["Facebook"].inferred_script_intents()
                == measurements["Instagram"].inferred_script_intents())
        assert (measurements["Facebook"].inferred_bridge_intents()
                == measurements["Instagram"].inferred_bridge_intents())

    def test_moj_chingari_identical(self, measurements):
        assert (measurements["Moj"].inferred_script_intents()
                == measurements["Chingari"].inferred_script_intents())

    def test_linkedin_network_measurement(self, measurements):
        assert measurements["LinkedIn"].inferred_script_intents() == [
            "Calls to Cedexis traffic management API."
        ]

    def test_moj_ad_not_rendered(self, measurements):
        """The ad spec has width/height 0 -> noAdView; no Web API used."""
        moj = measurements["Moj"]
        assert moj.webapi_pairs == []
        bridge = moj.runtime.js_bridges["googleAdsJsInterface"]
        payloads = [args for _, args in bridge.invocations]
        assert any("noAdView" in arg for args in payloads for arg in args)

    def test_kik_read_only_web_apis(self, measurements):
        """Table 9: Kik's IAB used only read-only Web APIs."""
        kik = measurements["Kik"]
        assert kik.webapi_pairs
        assert kik.runtime.recorder.read_only

    def test_facebook_table9_rows(self, measurements):
        pairs = set(measurements["Facebook"].webapi_pairs)
        expected = {
            ("Document", "getElementById"),
            ("Document", "createElement"),
            ("Document", "querySelectorAll"),
            ("Document", "getElementsByTagName"),
            ("Document", "addEventListener"),
            ("Document", "removeEventListener"),
            ("Element", "hasAttribute"),
            ("HTMLBodyElement", "insertBefore"),
            ("HTMLCollection", "item"),
            ("NodeList", "item"),
            ("HTMLMetaElement", "getAttribute"),
        }
        assert expected <= pairs

    def test_webview_apis_recorded_by_frida(self, measurements):
        facebook = measurements["Facebook"]
        called = facebook.frida.methods_called()
        assert "addJavascriptInterface" in called
        assert "evaluateJavascript" in called
        assert "loadUrl" in called

    def test_bridge_methods_captured_per_bridge(self, measurements):
        assert measurements["Facebook"].injected_bridge_methods == {
            "fbpayIAWBridge": ("requestPayment",),
            "metaCheckoutIAWBridge": ("openCheckout",),
            "_AutofillExtensions": ("getAutofillData",),
        }
        assert measurements["Pinterest"].injected_bridge_methods == {
            "a0": ("postMessage",),
        }

    def test_opaque_bridge_classified_by_methods(self):
        """An opaque *name* falls back to the exposed-method heuristics
        before being written off as obfuscated."""
        from repro.dynamic.measurements import IabMeasurement
        shim = IabMeasurement(None)
        shim.injected_bridges = ["zx81"]
        shim.injected_bridge_methods = {
            "zx81": ("requestPayment", "postMessage"),
        }
        assert shim.inferred_bridge_intents() == ["Facebook Pay."]

    def test_postmessage_only_bridge_stays_obfuscated(self, measurements):
        """Pinterest's ``a0`` exposes only postMessage, which carries no
        intent signal — it must still read as obfuscated."""
        pinterest = measurements["Pinterest"]
        assert pinterest.inferred_bridge_intents() == ["(Obfuscated)"]

    def test_method_heuristic_covers_ads_bridges(self):
        from repro.dynamic.measurements import IabMeasurement
        shim = IabMeasurement(None)
        shim.injected_bridges = ["q7"]
        shim.injected_bridge_methods = {"q7": ("notifyAdLoaded",)}
        assert shim.inferred_bridge_intents() == ["Google Ads."]
