"""Corpus calibration constants, anchored to the paper's Table 2 and 4.1.

All scale-free quantities (fractions, probabilities, per-SDK shares) come
from the paper; the absolute corpus size is a parameter so studies can run
at laptop scale while preserving every proportion.
"""

import datetime

from repro.util import DEFAULT_SEED

#: Paper Table 2 funnel (absolute numbers from the paper).
PAPER_FUNNEL = {
    "androzoo_play_apps": 6_507_222,
    "found_on_play": 2_454_488,
    "with_100k_downloads": 198_324,
    "updated_after_2021": 146_800,
    "successfully_analyzed": 146_558,
}


class FunnelRatios:
    """Scale-free versions of the Table 2 funnel."""

    #: Fraction of AndroZoo Play apps still listed on the Play Store.
    found_on_play = PAPER_FUNNEL["found_on_play"] / PAPER_FUNNEL["androzoo_play_apps"]
    #: Fraction of listed apps with >= 100K downloads.
    popular = PAPER_FUNNEL["with_100k_downloads"] / PAPER_FUNNEL["found_on_play"]
    #: Fraction of popular apps updated after 2021-01-01.
    maintained = (
        PAPER_FUNNEL["updated_after_2021"] / PAPER_FUNNEL["with_100k_downloads"]
    )
    #: Fraction of selected apps whose APK is analyzable (242 broken).
    analyzable = (
        PAPER_FUNNEL["successfully_analyzed"] / PAPER_FUNNEL["updated_after_2021"]
    )


class CorpusConfig:
    """Parameters for corpus generation.

    ``universe_size`` is the number of AndroZoo index entries to generate;
    the Table 2 funnel ratios then determine how many survive each filter.
    The defaults give ~450 selected apps — enough for stable proportions in
    tests; benchmarks typically use a universe of 60-100K (~1.4-2.2K
    selected apps).
    """

    def __init__(self, universe_size=20_000, seed=DEFAULT_SEED,
                 snapshot_date=datetime.date(2023, 1, 13)):
        self.universe_size = int(universe_size)
        self.seed = seed
        self.snapshot_date = snapshot_date

        # -- Section 4.1 usage marginals ------------------------------------
        #: P(app uses WebViews) = 55.7%; P(CTs) = 20% (29,130/146,558);
        #: P(both) = 15%.
        self.p_webview = 0.557
        self.p_customtabs = 29_130 / 146_558
        self.p_both = 21_938 / 146_558

        #: Fraction of WebView apps whose usage comes via catalogued SDKs
        #: (Table 7: 54,833/81,720) and likewise for CTs (27,891/29,130).
        self.p_webview_via_sdk = 54_833 / 81_720
        self.p_ct_via_sdk = 27_891 / 29_130

        #: Distribution of how many WebView SDKs an SDK-using app embeds.
        self.sdk_count_weights = {1: 0.60, 2: 0.25, 3: 0.10, 4: 0.05}

        #: First-party (non-SDK) WebView method-call profile, tuned so the
        #: aggregate (SDK + first-party) reproduces Table 7's marginals.
        self.first_party_method_profile = {
            "loadUrl": 0.95,
            "addJavascriptInterface": 0.50,
            "loadDataWithBaseURL": 0.30,
            "evaluateJavascript": 0.30,
            "removeJavascriptInterface": 0.17,
            "loadData": 0.27,
            "postUrl": 0.09,
        }

        # -- structural noise -------------------------------------------------
        #: P(an app ships a deep-link (BROWSABLE) activity hosting
        #: first-party web content — excluded by the pipeline, 3.1.3).
        self.p_deep_link_activity = 0.15
        #: P(a *non*-WebView app hosts first-party content in a deep-link
        #: activity via a WebView). These are exactly the apps the paper's
        #: BROWSABLE filter exists to exclude: without the filter the
        #: pipeline would wrongly count them as third-party WebView users.
        self.p_deep_link_host_nonwebview = 0.08
        #: P(an app contains dead code calling WebView APIs — pruned by
        #: entry-point traversal; quantified in the ablation bench).
        self.p_dead_code = 0.12
        #: P(a first-party WebView app defines its own WebView subclass).
        self.p_first_party_subclass = 0.08
        #: P(a WebView app also bundles Google's own excluded SDK code).
        self.p_google_sdk = 0.40
        #: P(an app is a browser — Table 6 found 9/1000 in the top 1K).
        self.p_browser_app = 0.009

        # -- funnel -----------------------------------------------------------
        self.funnel = FunnelRatios()
        self.update_cutoff = datetime.date(2021, 1, 1)
        self.min_installs = 100_000

    def __repr__(self):
        return "CorpusConfig(universe=%d, seed=%r)" % (
            self.universe_size, self.seed
        )
