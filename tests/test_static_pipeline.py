"""Integration tests for the static-analysis pipeline (Figure 1)."""

import pytest

from repro.corpus import CorpusConfig, build_app_apk, generate_corpus
from repro.corpus.profiles import build_spec
from repro.errors import BrokenApkError
from repro.obs import EXEC_TASKS_METRIC, EXEC_WORKER_BUSY_METRIC, Obs
from repro.playstore.models import AppCategory
from repro.sdk import SdkCategory, build_catalog
from repro.static_analysis import (
    PipelineOptions,
    StaticAnalysisPipeline,
    analyze_apk_bytes,
)
from repro.static_analysis.export import export_study_json
from repro.static_analysis.report import (
    Aggregator,
    figure3,
    figure4,
    table2,
    table3,
    table4,
    table5,
    table7,
)
from repro.static_analysis.results import RecordedCall


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig(universe_size=12_000, seed=20230113))


@pytest.fixture(scope="module")
def result(corpus):
    return StaticAnalysisPipeline(corpus).run()


@pytest.fixture(scope="module")
def agg(result):
    return Aggregator(result)


def make_spec(catalog, **overrides):
    spec = build_spec(CorpusConfig(universe_size=1, seed=11), catalog, 0,
                      pinned=("com.pipe.app", "Pipe", 1_000_000,
                              AppCategory.TOOLS))
    # Reset every sampled feature so each test states its setup explicitly.
    spec.broken = False
    spec.uses_webview = False
    spec.uses_customtabs = False
    spec.sdk_uses = []
    spec.first_party_webview_methods = ()
    spec.first_party_ct = False
    spec.first_party_subclass = False
    spec.has_deep_link_activity = False
    spec.has_dead_code = False
    spec.bundles_google_sdk = False
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


class TestPerApkAnalysis:
    def test_first_party_webview_detected(self, catalog):
        spec = make_spec(catalog, uses_webview=True, uses_customtabs=False,
                         sdk_uses=[], first_party_ct=False,
                         first_party_webview_methods=("loadUrl", "loadData"),
                         first_party_subclass=False)
        analysis = analyze_apk_bytes(build_app_apk(spec))
        assert analysis.uses_webview
        assert analysis.webview_methods_used() == {"loadUrl", "loadData"}

    def test_subclass_calls_detected_via_parsing(self, catalog):
        spec = make_spec(catalog, uses_webview=True, uses_customtabs=False,
                         sdk_uses=[], first_party_ct=False,
                         first_party_webview_methods=("loadUrl",),
                         first_party_subclass=True)
        data = build_app_apk(spec)
        analysis = analyze_apk_bytes(data)
        assert "com.pipe.app.web.AppWebView" in analysis.webview_subclasses
        assert analysis.uses_webview
        # Without subclass detection, the same APK shows no WebView use.
        blind = analyze_apk_bytes(
            data, options=PipelineOptions(subclass_detection=False)
        )
        assert not blind.uses_webview

    def test_dead_code_pruned_by_traversal(self, catalog):
        spec = make_spec(catalog, uses_webview=False, uses_customtabs=False,
                         sdk_uses=[], first_party_ct=False,
                         has_dead_code=True, has_deep_link_activity=False)
        data = build_app_apk(spec)
        analysis = analyze_apk_bytes(data)
        assert not analysis.uses_webview
        unreachable = [c for c in analysis.calls if not c.reachable]
        assert unreachable
        # The naive whole-code scan counts the dead code.
        naive = analyze_apk_bytes(
            data, options=PipelineOptions(entry_point_traversal=False)
        )
        assert naive.uses_webview

    def test_deep_link_activity_excluded(self, catalog):
        spec = make_spec(catalog, uses_webview=False, uses_customtabs=False,
                         sdk_uses=[], first_party_ct=False,
                         has_deep_link_activity=True, has_dead_code=False)
        data = build_app_apk(spec)
        analysis = analyze_apk_bytes(data)
        assert not analysis.uses_webview
        excluded = [c for c in analysis.calls if c.excluded]
        assert excluded
        # Without the BROWSABLE filter the app is (wrongly) counted.
        unfiltered = analyze_apk_bytes(
            data, options=PipelineOptions(deep_link_filter=False)
        )
        assert unfiltered.uses_webview

    def test_ct_usage_detected(self, catalog):
        spec = make_spec(catalog, uses_webview=False, uses_customtabs=True,
                         sdk_uses=[], first_party_ct=True)
        analysis = analyze_apk_bytes(build_app_apk(spec))
        assert analysis.uses_customtabs
        assert not analysis.uses_webview

    def test_broken_apk_raises(self, catalog):
        spec = make_spec(catalog, broken=True)
        with pytest.raises(BrokenApkError):
            analyze_apk_bytes(build_app_apk(spec))

    def test_sdk_attribution(self, catalog, corpus):
        applovin = next(p for p in catalog if p.name == "AppLovin")
        from repro.corpus.profiles import SdkUse

        spec = make_spec(
            catalog, uses_webview=True, uses_customtabs=False,
            first_party_ct=False, first_party_webview_methods=(),
            sdk_uses=[SdkUse(applovin, True, False,
                             ("loadUrl", "addJavascriptInterface"))],
        )
        analysis = analyze_apk_bytes(build_app_apk(spec))
        from repro.sdk import SdkLabeler

        attribution = analysis.label_sdks(SdkLabeler(catalog))
        assert {s.name for s in attribution.webview.sdks} == {"AppLovin"}

    def test_google_sdk_excluded_from_attribution(self, catalog):
        spec = make_spec(catalog, uses_webview=True, uses_customtabs=False,
                         sdk_uses=[], first_party_ct=False,
                         first_party_webview_methods=("loadUrl",),
                         bundles_google_sdk=True)
        analysis = analyze_apk_bytes(build_app_apk(spec))
        from repro.sdk import SdkLabeler

        attribution = analysis.label_sdks(SdkLabeler(catalog))
        assert attribution.webview.excluded_packages
        assert attribution.webview.first_party


class TestStudyRun:
    def test_funnel_monotone(self, result):
        funnel = result.funnel_dict()
        assert (funnel["androzoo_play_apps"] >= funnel["found_on_play"]
                >= funnel["with_100k_downloads"]
                >= funnel["updated_after_2021"]
                >= funnel["successfully_analyzed"])

    def test_some_broken_apks(self, result):
        assert result.broken >= 0
        assert result.analyzed + result.broken == len(result.analyses)

    def test_usage_shares_in_paper_range(self, result, agg):
        wv_share = agg.webview_apps / result.analyzed
        ct_share = agg.ct_apps / result.analyzed
        both_share = agg.both_apps / result.analyzed
        assert 0.45 < wv_share < 0.65      # paper: 55.7%
        assert 0.13 < ct_share < 0.27      # paper: ~20%
        assert 0.09 < both_share < 0.21    # paper: ~15%

    def test_webview_more_common_than_ct(self, agg):
        assert agg.webview_apps > agg.ct_apps

    def test_loadurl_most_common_method(self, agg):
        assert agg.method_apps["loadUrl"] == max(agg.method_apps.values())

    def test_sdk_coverage_shares(self, agg):
        """Paper: top SDKs cover ~67% of WebView and ~96% of CT apps."""
        wv_cover = agg.webview_apps_with_sdks / agg.webview_apps
        ct_cover = agg.ct_apps_with_sdks / agg.ct_apps
        assert 0.5 < wv_cover < 0.85
        assert 0.85 < ct_cover <= 1.0

    def test_advertising_dominates_webview_sdks(self, agg):
        per_type = {}
        for name, apps in agg.sdk_webview_apps.items():
            category = agg.sdk_profile(name).category
            per_type[category] = per_type.get(category, 0) + apps
        assert max(per_type, key=per_type.get) == SdkCategory.ADVERTISING

    def test_social_dominates_ct_sdks(self, agg):
        per_type = {}
        for name, apps in agg.sdk_ct_apps.items():
            category = agg.sdk_profile(name).category
            per_type[category] = per_type.get(category, 0) + apps
        assert max(per_type, key=per_type.get) == SdkCategory.SOCIAL

    def test_applovin_is_top_webview_sdk(self, agg):
        top = max(agg.sdk_webview_apps, key=agg.sdk_webview_apps.get)
        assert top == "AppLovin"

    def test_facebook_is_top_ct_sdk(self, agg):
        top = max(agg.sdk_ct_apps, key=agg.sdk_ct_apps.get)
        assert top == "Facebook"

    def test_reproducible(self, corpus):
        a = StaticAnalysisPipeline(corpus).run(max_apps=40)
        b = StaticAnalysisPipeline(corpus).run(max_apps=40)
        assert [x.uses_webview for x in a.analyses] == [
            x.uses_webview for x in b.analyses
        ]

    def test_repeat_run_served_from_outcome_tier(self, corpus, result):
        # Both runs share the corpus's outcome tier: the second analyzes
        # nothing and returns the first run's results.
        obs = Obs()
        repeat = StaticAnalysisPipeline(corpus, obs=obs).run()
        registry = obs.registry
        assert set(registry.label_values(EXEC_TASKS_METRIC)) == {
            ("cached",)}
        assert sum(
            registry.label_values(EXEC_WORKER_BUSY_METRIC).values()) == 0
        assert export_study_json(repeat) == export_study_json(result)


class TestParallelExecution:
    """Determinism and fault isolation of the sharded execution layer."""

    def test_results_identical_across_worker_counts(self):
        from repro.core.study import StaticStudy

        serial = StaticStudy(universe_size=2_000, seed=424242, max_workers=1)
        sharded = StaticStudy(universe_size=2_000, seed=424242,
                              max_workers=4, chunk_size=5,
                              exec_backend="inline")
        serial.run()
        sharded.run()
        assert serial.table2().render() == sharded.table2().render()
        assert serial.table3().render() == sharded.table3().render()

    def test_process_backend_matches_inline(self):
        from repro.core.study import StaticStudy

        inline = StaticStudy(universe_size=600, seed=31337, max_workers=1)
        forked = StaticStudy(universe_size=600, seed=31337, max_workers=2,
                             chunk_size=2, exec_backend="process")
        inline.run()
        forked.run()
        assert inline.table2().render() == forked.table2().render()
        assert inline.table3().render() == forked.table3().render()

    def test_failures_become_drops_not_aborts(self):
        from repro.errors import RepositoryError, error_slug
        from repro.exec import AnalysisCache
        from repro.obs import APPS_LISTED_METRIC, DROPS_METRIC

        corpus = generate_corpus(CorpusConfig(universe_size=2_000, seed=99),
                                 obs=Obs())
        probe = StaticAnalysisPipeline(corpus, obs=Obs(),
                                       cache=AnalysisCache())
        selected, _funnel = probe.select_apps()
        rows = [row for row, _listing in selected]
        assert len(rows) >= 2

        # One app whose APK bytes are corrupt, one whose download fails.
        corpus.repository._payloads[rows[0].sha256] = b"garbage, not an apk"

        def refuse():
            raise RepositoryError("mirror offline")

        corpus.repository._payloads[rows[1].sha256] = refuse

        obs = Obs()
        pipeline = StaticAnalysisPipeline(corpus, obs=obs,
                                          cache=AnalysisCache())
        result = pipeline.run()

        # Both sabotaged apps were isolated, not fatal.
        assert result.broken >= 2
        assert result.analyzed + result.broken == len(rows)
        drops = obs.registry.label_values(DROPS_METRIC)
        reasons = {labels[0] for labels in drops}
        assert "broken_apk" in reasons
        assert error_slug(RepositoryError) in reasons
        # The funnel invariant survives injected faults: every listed app
        # is either analyzed or accounted for by exactly one drop reason.
        listed = obs.registry.value(APPS_LISTED_METRIC)
        assert sum(drops.values()) == listed - result.analyzed


class TestReports:
    def test_table2_renders(self, result):
        text = table2(result).render()
        assert "Play Store apps in Androzoo" in text

    def test_table3_total_row(self, agg):
        records = table3(agg).as_records()
        total = records[-1]
        assert total["Type of SDK"] == "Total"
        assert total["Use WebViews"] > total["Use CT"]

    def test_table4_contains_applovin(self, agg):
        text = table4(agg).render()
        assert "AppLovin" in text

    def test_table5_contains_facebook(self, agg):
        text = table5(agg).render()
        assert "Facebook" in text

    def test_table7_row_order(self, agg):
        records = table7(agg).as_records()
        assert records[0]["Dataset"] == "Apps using WebViews"
        assert records[1]["Dataset"].strip() == "loadUrl"

    def test_figure3_series(self, agg):
        wv_series, ct_series = figure3(agg)
        assert len(wv_series.categories) <= 10
        wv_data = wv_series.as_dict()
        assert "Advertising" in wv_data

    def test_figure4_user_support_anchor(self, agg):
        heatmap = figure4(agg)
        data = heatmap.as_dict()
        if "User Support" in data:
            row = data["User Support"]
            assert row["loadDataWithBaseURL"] >= row["loadUrl"]

    def test_figure4_values_are_percentages(self, agg):
        for row in figure4(agg).as_dict().values():
            for value in row.values():
                assert 0.0 <= value <= 100.0

    def test_ablation_entrypoints_increase_counts(self, corpus):
        """Whole-code scanning yields >= usage vs entry-point traversal."""
        strict = StaticAnalysisPipeline(corpus).run(max_apps=120)
        naive = StaticAnalysisPipeline(
            corpus, options=PipelineOptions(entry_point_traversal=False,
                                            deep_link_filter=False)
        ).run(max_apps=120)
        strict_wv = sum(1 for a in strict.successful() if a.uses_webview)
        naive_wv = sum(1 for a in naive.successful() if a.uses_webview)
        assert naive_wv >= strict_wv
