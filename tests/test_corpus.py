"""Tests for the corpus generator: specs, APK synthesis, ecosystem."""

import pytest

from repro.apk.container import read_apk
from repro.corpus import (
    CorpusConfig,
    build_app_apk,
    generate_corpus,
    generate_specs,
)
from repro.corpus.profiles import REAL_TOP_APPS, affinity, build_spec
from repro.errors import BrokenApkError
from repro.playstore.models import AppCategory
from repro.sdk import SdkCategory, build_catalog
from repro.util import percent


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(CorpusConfig(universe_size=3000, seed=7))


class TestSpecs:
    def test_deterministic(self, catalog):
        config = CorpusConfig(universe_size=50, seed=3)
        a = generate_specs(config, catalog)
        b = generate_specs(config, catalog)
        assert [s.package for s in a] == [s.package for s in b]
        assert [s.uses_webview for s in a] == [s.uses_webview for s in b]

    def test_seed_changes_specs(self, catalog):
        a = generate_specs(CorpusConfig(universe_size=200, seed=1), catalog)
        b = generate_specs(CorpusConfig(universe_size=200, seed=2), catalog)
        assert [s.uses_webview for s in a] != [s.uses_webview for s in b]

    def test_real_top_apps_pinned(self, catalog):
        config = CorpusConfig(universe_size=30, seed=3)
        specs = generate_specs(config, catalog)
        assert specs[0].package == "com.facebook.katana"
        assert specs[0].installs == 8_400_000_000
        assert specs[0].selected

    def test_funnel_fractions_roughly_match(self, catalog):
        config = CorpusConfig(universe_size=6000, seed=11)
        specs = generate_specs(config, catalog)
        listed = sum(1 for s in specs if s.listed)
        popular = sum(1 for s in specs if s.popular)
        selected = sum(1 for s in specs if s.selected)
        assert 0.33 < listed / len(specs) < 0.43
        assert 0.05 < popular / listed < 0.11
        assert 0.6 < selected / popular < 0.85

    def test_usage_fractions_roughly_match(self, catalog):
        config = CorpusConfig(universe_size=20000, seed=5)
        specs = [s for s in generate_specs(config, catalog) if s.selected]
        wv = percent(sum(1 for s in specs if s.uses_webview), len(specs))
        ct = percent(sum(1 for s in specs if s.uses_customtabs), len(specs))
        both = percent(sum(1 for s in specs if s.uses_both), len(specs))
        assert 48 < wv < 63
        assert 14 < ct < 26
        assert 10 < both < 20

    def test_popular_apps_have_min_installs(self, catalog):
        config = CorpusConfig(universe_size=2000, seed=9)
        for spec in generate_specs(config, catalog):
            if spec.popular:
                assert spec.installs >= 100_000
            elif spec.listed:
                assert spec.installs < 100_000

    def test_maintained_dates(self, catalog):
        config = CorpusConfig(universe_size=2000, seed=9)
        for spec in generate_specs(config, catalog):
            if not spec.popular:
                continue
            if spec.maintained:
                assert spec.updated >= config.update_cutoff
            else:
                assert spec.updated < config.update_cutoff

    def test_non_selected_specs_have_no_features(self, catalog):
        config = CorpusConfig(universe_size=500, seed=13)
        for spec in generate_specs(config, catalog):
            if not spec.selected:
                assert not spec.sdk_uses
                assert not spec.uses_webview

    def test_affinity_games_love_ads(self):
        assert affinity(AppCategory.PUZZLE, SdkCategory.ADVERTISING) > 1.0

    def test_affinity_education_prefers_payments(self):
        assert affinity(AppCategory.EDUCATION, SdkCategory.PAYMENTS) > 2.0
        assert affinity(AppCategory.EDUCATION, SdkCategory.ADVERTISING) < 1.0

    def test_affinity_default_is_one(self):
        assert affinity(AppCategory.PHOTOGRAPHY, SdkCategory.SOCIAL) == 1.0


def spec_with(catalog, **overrides):
    """A concrete selected spec for APK-synthesis tests."""
    config = CorpusConfig(universe_size=1, seed=42)
    spec = build_spec(config, catalog, 0,
                      pinned=("com.test.app", "Test", 1_000_000,
                              AppCategory.TOOLS))
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


class TestApkSynthesis:
    def test_builds_readable_apk(self, catalog):
        spec = spec_with(catalog, broken=False)
        apk = read_apk(build_app_apk(spec))
        assert apk.package == "com.test.app"

    def test_launcher_activity_present(self, catalog):
        spec = spec_with(catalog, broken=False)
        apk = read_apk(build_app_apk(spec))
        launchers = [a.name for a in apk.manifest.activities
                     if any(f.is_launcher for f in a.intent_filters)]
        assert launchers == ["com.test.app.MainActivity"]

    def test_broken_spec_yields_broken_apk(self, catalog):
        spec = spec_with(catalog, broken=True)
        with pytest.raises(BrokenApkError):
            read_apk(build_app_apk(spec))

    def test_webview_spec_has_webview_calls(self, catalog):
        spec = spec_with(catalog, broken=False, uses_webview=True,
                         sdk_uses=[], first_party_ct=False,
                         first_party_webview_methods=("loadUrl",
                                                      "evaluateJavascript"),
                         first_party_subclass=False)
        apk = read_apk(build_app_apk(spec))
        called = {
            ref.method_name
            for _, method in apk.dex.iter_methods()
            for ref in method.invoked_refs()
            if ref.class_name == "android.webkit.WebView"
        }
        assert {"loadUrl", "evaluateJavascript"} <= called

    def test_subclass_spec_generates_subclass(self, catalog):
        spec = spec_with(catalog, broken=False, uses_webview=True,
                         sdk_uses=[], first_party_ct=False,
                         first_party_webview_methods=("loadUrl",),
                         first_party_subclass=True)
        apk = read_apk(build_app_apk(spec))
        subclass = apk.dex.class_by_name("com.test.app.web.AppWebView")
        assert subclass.superclass == "android.webkit.WebView"

    def test_deep_link_manifest_entry(self, catalog):
        spec = spec_with(catalog, broken=False, has_deep_link_activity=True)
        apk = read_apk(build_app_apk(spec))
        assert apk.manifest.deep_link_activities()

    def test_dead_code_not_wired(self, catalog):
        spec = spec_with(catalog, broken=False, has_dead_code=True)
        apk = read_apk(build_app_apk(spec))
        legacy = apk.dex.class_by_name(
            "com.test.app.internal.LegacyPreloader"
        )
        assert legacy is not None
        callers = [
            (cls.name, ref.method_name)
            for cls, method in apk.dex.iter_methods()
            for ref in method.invoked_refs()
            if ref.class_name == legacy.name
        ]
        assert callers == []

    def test_google_sdk_class_bundled(self, catalog):
        spec = spec_with(catalog, broken=False, bundles_google_sdk=True)
        apk = read_apk(build_app_apk(spec))
        assert apk.dex.class_by_name("com.google.android.gms.ads.AdLoader")

    def test_ct_spec_has_launchurl(self, catalog):
        spec = spec_with(catalog, broken=False, uses_customtabs=True,
                         sdk_uses=[], first_party_ct=True)
        apk = read_apk(build_app_apk(spec))
        called = {
            (ref.class_name, ref.method_name)
            for _, method in apk.dex.iter_methods()
            for ref in method.invoked_refs()
        }
        assert ("androidx.browser.customtabs.CustomTabsIntent",
                "launchUrl") in called

    def test_apk_deterministic(self, catalog):
        spec = spec_with(catalog, broken=False)
        assert build_app_apk(spec, seed=1) == build_app_apk(spec, seed=1)


class TestCorpus:
    def test_store_and_repo_populated(self, small_corpus):
        assert len(small_corpus.repository) == 3000
        assert len(small_corpus.store) < 3000
        assert len(small_corpus.store) > 0

    def test_selected_specs_downloadable(self, small_corpus):
        snapshot = small_corpus.repository.snapshot()
        spec = small_corpus.selected_specs()[5]
        row = snapshot.latest_version(spec.package)
        data = small_corpus.repository.download(row.sha256)
        if not spec.broken:
            assert read_apk(data).package == spec.package

    def test_top_apps_sorted_by_installs(self, small_corpus):
        top = small_corpus.top_apps(20)
        installs = [spec.installs for spec in top]
        assert installs == sorted(installs, reverse=True)
        assert top[0].package == REAL_TOP_APPS[0][0]
