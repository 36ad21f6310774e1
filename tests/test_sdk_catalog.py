"""Tests for the SDK catalog and package labelling."""

from collections import defaultdict

import pytest

from repro.sdk import (
    GOOGLE_ANDROID_PREFIX,
    PackageLabel,
    SdkCategory,
    SdkLabeler,
    build_catalog,
    named_sdks,
)
from repro.sdk.catalog import (
    METHOD_PROFILES,
    PAPER_TOTAL_APPS,
    TABLE3_SDK_TYPE_COUNTS,
)
from repro.sdk.labeling import looks_obfuscated


class TestCatalogCalibration:
    def test_table3_counts_exact(self):
        """The catalog reproduces Table 3 exactly, per type."""
        catalog = build_catalog()
        wv = defaultdict(int)
        ct = defaultdict(int)
        both = defaultdict(int)
        for profile in catalog:
            if profile.uses_webview:
                wv[profile.category] += 1
            if profile.uses_customtabs:
                ct[profile.category] += 1
            if profile.uses_both:
                both[profile.category] += 1
        for category, (w, c, b) in TABLE3_SDK_TYPE_COUNTS.items():
            assert (wv[category], ct[category], both[category]) == (w, c, b), (
                category
            )

    def test_totals_match_paper(self):
        catalog = build_catalog()
        assert sum(1 for p in catalog if p.uses_webview) == 125
        assert sum(1 for p in catalog if p.uses_customtabs) == 45
        assert sum(1 for p in catalog if p.uses_both) == 34

    def test_every_sdk_has_positive_target(self):
        for profile in build_catalog():
            assert profile.webview_apps + profile.ct_apps > 0

    def test_long_tail_sdks_exceed_100_apps(self):
        """Each of the synthesized tail packages is used by >100 apps
        (Section 3.1.4: every labelled package had more than 100 apps)."""
        named = {p.name for p in named_sdks()}
        for profile in build_catalog():
            if profile.name not in named:
                assert profile.webview_apps + profile.ct_apps > 100

    def test_package_prefixes_unique(self):
        prefixes = [
            prefix
            for profile in build_catalog()
            for prefix in profile.package_prefixes
        ]
        assert len(prefixes) == len(set(prefixes))

    def test_four_obfuscated_sdks(self):
        catalog = build_catalog()
        assert sum(1 for p in catalog if p.obfuscated) == 4

    def test_named_sdk_counts_match_table4(self):
        by_name = {p.name: p for p in named_sdks()}
        assert by_name["AppLovin"].webview_apps == 27_397
        assert by_name["Open Measurement"].webview_apps == 11_333
        assert by_name["Stripe"].webview_apps == 1_171
        assert by_name["Zendesk"].webview_apps == 1_000

    def test_named_sdk_counts_match_table5(self):
        by_name = {p.name: p for p in named_sdks()}
        assert by_name["Facebook"].ct_apps == 23_234
        assert by_name["Google Firebase"].ct_apps == 7_565
        assert by_name["HyprMX"].ct_apps == 1_257

    def test_facebook_deprecated_webviews(self):
        """Facebook deprecated WebView login in Oct 2021 (4.1.6)."""
        facebook = {p.name: p for p in named_sdks()}["Facebook"]
        assert not facebook.uses_webview
        assert facebook.uses_customtabs

    def test_ad_ct_sdks_also_use_webviews(self):
        """All 3 CT ad SDKs also use WebViews (4.1.1)."""
        for profile in build_catalog():
            if (profile.category == SdkCategory.ADVERTISING
                    and profile.uses_customtabs):
                assert profile.uses_webview

    def test_method_profiles_cover_all_categories(self):
        for category in SdkCategory:
            assert category in METHOD_PROFILES

    def test_user_support_always_loads_local_data(self):
        """4.1.5: all user-support apps use loadDataWithBaseURL."""
        profile = METHOD_PROFILES[SdkCategory.USER_SUPPORT]
        assert profile["loadDataWithBaseURL"] == 1.0
        assert profile["loadUrl"] == pytest.approx(0.459)

    def test_probabilities_are_probabilities(self):
        for profile in METHOD_PROFILES.values():
            for value in profile.values():
                assert 0.0 <= value <= 1.0

    def test_adoption_probability(self):
        applovin = {p.name: p for p in named_sdks()}["AppLovin"]
        assert applovin.webview_probability == pytest.approx(
            27_397 / PAPER_TOTAL_APPS
        )

    def test_catalog_deterministic(self):
        names_a = [p.name for p in build_catalog()]
        names_b = [p.name for p in build_catalog()]
        assert names_a == names_b


class TestObfuscationHeuristic:
    def test_obfuscated_patterns(self):
        assert looks_obfuscated("a.b.c")
        assert looks_obfuscated("o.a")

    def test_normal_packages(self):
        assert not looks_obfuscated("com.applovin.adview")
        assert not looks_obfuscated("com.example")

    def test_single_segment(self):
        assert not looks_obfuscated("internal")


class TestLabeler:
    def setup_method(self):
        self.labeler = SdkLabeler(build_catalog())

    def test_known_sdk(self):
        label = self.labeler.label("com.applovin.adview")
        assert label.status == PackageLabel.KNOWN
        assert label.sdk.name == "AppLovin"
        assert label.category == SdkCategory.ADVERTISING

    def test_google_excluded(self):
        label = self.labeler.label(GOOGLE_ANDROID_PREFIX + ".gms.ads")
        assert label.status == PackageLabel.EXCLUDED
        assert label.category is None

    def test_firebase_not_swallowed_by_google_exclusion(self):
        """com.google.firebase is not under com.google.android."""
        label = self.labeler.label("com.google.firebase.auth.internal")
        assert label.status == PackageLabel.KNOWN
        assert label.sdk.name == "Google Firebase"

    def test_obfuscated_catalog_package(self):
        label = self.labeler.label("a.a.a.webview")
        assert label.status == PackageLabel.OBFUSCATED
        assert label.category == SdkCategory.UNKNOWN

    def test_unknown_package(self):
        label = self.labeler.label("com.randomvendor.widgets")
        assert label.status == PackageLabel.UNKNOWN
        assert label.category == SdkCategory.UNKNOWN

    def test_profile_for_package(self):
        assert self.labeler.label("com.stripe.android").sdk.name == "Stripe"
        assert self.labeler.label("com.nobody.here").sdk is None
