"""Tests for the Section 5 extension features: Partial Custom Tabs,
CustomTabsCallback engagement signals, website-side WebView policies
(Figure 5), and privacy nutrition labels."""

import pytest

from repro.android.api import X_REQUESTED_WITH_HEADER
from repro.corpus import CorpusConfig, generate_corpus
from repro.dynamic.customtab_runtime import (
    BrowserSession,
    CustomTabsCallback,
    PartialCustomTab,
)
from repro.dynamic.device import Device
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.errors import DeviceError
from repro.netstack.network import Network, Request
from repro.static_analysis import StaticAnalysisPipeline
from repro.static_analysis.nutrition import (
    NutritionLabel,
    grade_distribution,
    label_study,
)
from repro.web.sitepolicy import (
    PolicyDecision,
    PolicyRegistry,
    WebViewPolicy,
    apply_policy,
    default_web_policies,
    is_sensitive_path,
)


def lenient_device():
    return Device(network=Network(seed=0, strict=False))


class TestPartialCustomTab:
    def make(self, **kwargs):
        device = lenient_device()
        return device, PartialCustomTab("com.news.app", device,
                                        BrowserSession(), **kwargs)

    def test_inline_by_default(self):
        _, tab = self.make(height_px=600)
        assert not tab.expanded
        assert tab.height_px == 600

    def test_height_clamped_to_minimum(self):
        _, tab = self.make(height_px=5)
        assert tab.height_px == PartialCustomTab.MIN_HEIGHT_PX

    def test_height_clamped_to_screen(self):
        _, tab = self.make(height_px=99_999)
        assert tab.height_px == tab.screen_height_px
        assert tab.expanded

    def test_resize_and_expand(self):
        _, tab = self.make(height_px=600)
        tab.resize(900)
        assert tab.height_px == 900
        assert not tab.expanded
        tab.resize(tab.screen_height_px)
        assert tab.expanded

    def test_ad_rendering_is_isolated(self):
        """The Section 5 pitch: ads via partial CTs keep isolation."""
        _, tab = self.make(height_px=400)
        response = tab.show_ad("https://securepubads.doubleclick.net/ad1")
        assert response.ok
        with pytest.raises(DeviceError):
            tab.evaluateJavascript("document.cookie")
        with pytest.raises(DeviceError):
            tab.get_dom()

    def test_ad_impression_signal_recorded(self):
        _, tab = self.make()
        tab.show_ad("https://ads.example.com/creative")
        assert ("ad_impression", "https://ads.example.com/creative") in (
            tab.browser.engagement_signals
        )

    def test_ad_request_not_webview_tagged(self):
        device, tab = self.make()
        tab.show_ad("https://ads.example.com/creative")
        assert (X_REQUESTED_WITH_HEADER
                not in device.network.requests_seen[-1].headers)


class TestCustomTabsCallback:
    def test_navigation_events_delivered(self):
        device = lenient_device()
        callback = CustomTabsCallback()
        tab = PartialCustomTab("com.app", device, BrowserSession(),
                               callback=callback)
        tab.launchUrl("https://example.com/")
        events = [event for event, _ in callback.events]
        assert events == [
            CustomTabsCallback.TAB_SHOWN,
            CustomTabsCallback.NAVIGATION_STARTED,
            CustomTabsCallback.NAVIGATION_FINISHED,
        ]

    def test_events_carry_no_page_content(self):
        """Least privilege: timing only, never URLs/DOM/cookies."""
        device = lenient_device()
        callback = CustomTabsCallback()
        tab = PartialCustomTab("com.app", device, BrowserSession(),
                               callback=callback)
        tab.launchUrl("https://secret-site.example/account")
        for _, extras in callback.events:
            blob = repr(extras)
            assert "secret-site" not in blob
            assert "cookie" not in blob.lower()

    def test_engagement_scroll_signal(self):
        callback = CustomTabsCallback()
        callback.on_greatest_scroll_percentage_increased(80)
        assert callback.engagement["scroll_percentage"] == 80


class TestSitePolicy:
    def webview_request(self, url):
        return Request(url, headers={
            X_REQUESTED_WITH_HEADER: "com.example.embedder",
        })

    def test_sensitive_path_detection(self):
        assert is_sensitive_path("/login")
        assert is_sensitive_path("/v2/oauth/authorize")
        assert is_sensitive_path("/store/Checkout")
        assert not is_sensitive_path("/news/article-1")

    def test_browser_always_served(self):
        decision = apply_policy(Request("https://facebook.com/login"),
                                WebViewPolicy.BLOCK_ALL)
        assert decision.served

    def test_facebook_blocks_webview_login(self):
        """Figure 5: 'Log in Disabled' for WebView sessions."""
        decision = apply_policy(
            self.webview_request("https://facebook.com/login"),
            WebViewPolicy.BLOCK_SENSITIVE,
        )
        assert decision.outcome == PolicyDecision.BLOCKED
        assert "Log in Disabled" in decision.reason
        assert decision.app_package == "com.example.embedder"

    def test_non_sensitive_webview_path_served(self):
        decision = apply_policy(
            self.webview_request("https://facebook.com/somepage"),
            WebViewPolicy.BLOCK_SENSITIVE,
        )
        assert decision.served

    def test_warn_policy_prompts(self):
        decision = apply_policy(
            self.webview_request("https://news.example/"),
            WebViewPolicy.WARN,
        )
        assert decision.outcome == PolicyDecision.PROMPTED

    def test_block_all(self):
        decision = apply_policy(
            self.webview_request("https://strict.example/anything"),
            WebViewPolicy.BLOCK_ALL,
        )
        assert decision.outcome == PolicyDecision.BLOCKED

    def test_registry_per_domain(self):
        registry = PolicyRegistry()
        registry.set_policy("facebook.com", WebViewPolicy.BLOCK_SENSITIVE)
        blocked = registry.decide(
            self.webview_request("https://www.facebook.com/login")
        )
        assert blocked.outcome == PolicyDecision.BLOCKED
        served = registry.decide(
            self.webview_request("https://other.example/login")
        )
        assert served.served

    def test_default_web_policies(self):
        registry = default_web_policies()
        decision = registry.decide(
            self.webview_request("https://m.facebook.com/login")
        )
        assert decision.outcome == PolicyDecision.BLOCKED

    def test_papers_irony_reproduced(self):
        """Facebook blocks WebView logins on its site, yet its own app
        opens third-party links in a WebView (Section 5)."""
        from repro.dynamic.apps import real_app_profiles
        from repro.dynamic.iab import IabKind

        facebook = [p for p in real_app_profiles()
                    if p.name == "Facebook"][0]
        assert facebook.iab_kind == IabKind.WEBVIEW  # opens links in WV...
        registry = default_web_policies()
        decision = registry.decide(
            self.webview_request("https://facebook.com/login")
        )
        assert decision.outcome == PolicyDecision.BLOCKED  # ...but blocks

    def test_ct_traffic_passes_facebook_policy(self):
        device = lenient_device()
        from repro.dynamic.customtab_runtime import CustomTabRuntime

        tab = CustomTabRuntime("com.app", device, BrowserSession())
        tab.launchUrl("https://facebook.com/login")
        request = device.network.requests_seen[-1]
        decision = default_web_policies().decide(request)
        assert decision.served

    def test_webview_traffic_caught_by_facebook_policy(self):
        device = lenient_device()
        runtime = WebViewRuntime("com.embedder", device)
        runtime.loadUrl("https://facebook.com/login")
        request = device.network.requests_seen[-1]
        decision = default_web_policies().decide(request)
        assert decision.outcome == PolicyDecision.BLOCKED


class TestNutritionLabels:
    @pytest.fixture(scope="class")
    def labels(self):
        corpus = generate_corpus(CorpusConfig(universe_size=8000, seed=31))
        result = StaticAnalysisPipeline(corpus).run()
        return label_study(result), result

    def test_every_app_labeled(self, labels):
        labeled, result = labels
        assert len(labeled) == len(result.successful())

    def test_grades_are_valid(self, labels):
        labeled, _ = labels
        assert {label.grade for label in labeled} <= set("ABCDF")

    def test_no_web_content_grades_a(self):
        label = NutritionLabel("com.x")
        assert label.grade == "A"
        assert label.disclosure_lines() == [
            "This app does not embed web content."
        ]

    def test_ct_only_grades_a(self):
        label = NutritionLabel("com.x")
        label.displays_web_content = True
        label.uses_customtabs = True
        assert label.grade == "A"

    def test_injection_surface_grades_d(self):
        label = NutritionLabel("com.x")
        label.displays_web_content = True
        label.uses_webview = True
        label.exposes_js_bridge = True
        assert label.grade == "D"

    def test_sensitive_plus_surface_grades_f(self):
        from repro.sdk.catalog import SdkCategory

        label = NutritionLabel("com.x")
        label.displays_web_content = True
        label.uses_webview = True
        label.can_inject_js = True
        label.sensitive_webview_types = [SdkCategory.PAYMENTS]
        assert label.grade == "F"

    def test_distribution_sums(self, labels):
        labeled, _ = labels
        distribution = grade_distribution(labeled)
        assert sum(distribution.values()) == len(labeled)

    def test_population_shape(self, labels):
        """Most apps embed some web content; a real fraction expose an
        injection surface (the paper's motivation)."""
        labeled, _ = labels
        distribution = grade_distribution(labeled)
        risky = distribution["D"] + distribution["F"]
        assert risky > 0
        assert distribution["A"] > 0

    def test_disclosures_match_flags(self, labels):
        labeled, _ = labels
        for label in labeled:
            lines = " ".join(label.disclosure_lines())
            if label.exposes_js_bridge:
                assert "JavaScript bridge" in lines
            if label.grade == "F":
                assert "sensitive data" in lines
