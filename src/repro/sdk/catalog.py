"""The SDK catalog: every SDK the paper names, plus the calibrated long tail.

Tables 3, 4 and 5 of the paper enumerate SDK types and the most popular
SDKs using WebViews and Custom Tabs, with per-SDK app counts out of the
146,558 analysed apps. This module encodes those SDKs — names, plausible
Java package prefixes, mechanisms, and target app counts — and synthesises
deterministic long-tail SDKs so per-type SDK counts sum to Table 3's totals
(125 WebView / 45 CT / 34 both).

The corpus generator samples SDK adoption from these targets; the static
pipeline then re-measures them, so benchmark output is a measurement of a
calibrated ecosystem rather than a restatement of constants.
"""

import enum

#: Total apps successfully analysed in the paper (Table 2) — the
#: denominator for all adoption-probability calibration.
PAPER_TOTAL_APPS = 146_558

#: Google's own SDK package, excluded from labelling "due to its multiple
#: essential functions" (Section 3.1.4).
GOOGLE_ANDROID_PREFIX = "com.google.android"


class SdkCategory(enum.Enum):
    """SDK use-case types from Table 3."""

    ADVERTISING = "Advertising"
    ENGAGEMENT = "Engagement"
    DEV_TOOLS = "Development Tools"
    PAYMENTS = "Payments"
    USER_SUPPORT = "User Support"
    SOCIAL = "Social"
    UTILITY = "Utility"
    AUTHENTICATION = "Authentication"
    HYBRID = "Hybrid Functionality"
    UNKNOWN = "Unknown"

    def __str__(self):
        return self.value


#: Table 3 reconstructed: (webview SDK count, CT SDK count, both count).
TABLE3_SDK_TYPE_COUNTS = {
    SdkCategory.ADVERTISING: (46, 3, 3),
    SdkCategory.PAYMENTS: (15, 6, 5),
    SdkCategory.DEV_TOOLS: (11, 7, 5),
    SdkCategory.ENGAGEMENT: (12, 0, 0),
    SdkCategory.SOCIAL: (10, 6, 4),
    SdkCategory.AUTHENTICATION: (7, 10, 6),
    SdkCategory.UNKNOWN: (10, 4, 4),
    SdkCategory.HYBRID: (6, 7, 5),
    SdkCategory.UTILITY: (4, 2, 2),
    SdkCategory.USER_SUPPORT: (4, 0, 0),
}

#: Per-SDK-type WebView API method-call probabilities (Figure 4 / Table 7).
#: Probability that an app embedding an SDK of this type has SDK code
#: calling each method. Anchored to the paper's stated observations: >45%
#: of ad-SDK apps expose a JS bridge and >30% inject JS (4.1.1); 48.5% of
#: payment apps expose a bridge (4.1.4); user-support SDKs always call
#: loadDataWithBaseURL and only 45.9% call loadUrl (4.1.5).
METHOD_PROFILES = {
    SdkCategory.ADVERTISING: {
        "loadUrl": 0.97, "addJavascriptInterface": 0.40,
        "evaluateJavascript": 0.26, "loadDataWithBaseURL": 0.47,
        "removeJavascriptInterface": 0.16, "loadData": 0.02, "postUrl": 0.03,
    },
    SdkCategory.ENGAGEMENT: {
        "loadUrl": 0.90, "addJavascriptInterface": 0.30,
        "evaluateJavascript": 0.34, "loadDataWithBaseURL": 0.55,
        "removeJavascriptInterface": 0.13, "loadData": 0.02, "postUrl": 0.02,
    },
    SdkCategory.DEV_TOOLS: {
        "loadUrl": 0.98, "addJavascriptInterface": 0.44,
        "evaluateJavascript": 0.40, "loadDataWithBaseURL": 0.26,
        "removeJavascriptInterface": 0.12, "loadData": 0.05, "postUrl": 0.05,
    },
    SdkCategory.PAYMENTS: {
        "loadUrl": 0.95, "addJavascriptInterface": 0.485,
        "evaluateJavascript": 0.35, "loadDataWithBaseURL": 0.25,
        "removeJavascriptInterface": 0.10, "loadData": 0.02, "postUrl": 0.30,
    },
    SdkCategory.USER_SUPPORT: {
        "loadUrl": 0.459, "addJavascriptInterface": 0.40,
        "evaluateJavascript": 0.30, "loadDataWithBaseURL": 1.0,
        "removeJavascriptInterface": 0.08, "loadData": 0.05, "postUrl": 0.01,
    },
    SdkCategory.SOCIAL: {
        "loadUrl": 0.98, "addJavascriptInterface": 0.30,
        "evaluateJavascript": 0.25, "loadDataWithBaseURL": 0.15,
        "removeJavascriptInterface": 0.07, "loadData": 0.01, "postUrl": 0.05,
    },
    SdkCategory.AUTHENTICATION: {
        "loadUrl": 0.97, "addJavascriptInterface": 0.25,
        "evaluateJavascript": 0.20, "loadDataWithBaseURL": 0.10,
        "removeJavascriptInterface": 0.06, "loadData": 0.01, "postUrl": 0.10,
    },
    SdkCategory.UTILITY: {
        "loadUrl": 0.90, "addJavascriptInterface": 0.40,
        "evaluateJavascript": 0.30, "loadDataWithBaseURL": 0.36,
        "removeJavascriptInterface": 0.10, "loadData": 0.05, "postUrl": 0.02,
    },
    SdkCategory.HYBRID: {
        "loadUrl": 0.95, "addJavascriptInterface": 0.70,
        "evaluateJavascript": 0.60, "loadDataWithBaseURL": 0.50,
        "removeJavascriptInterface": 0.18, "loadData": 0.10, "postUrl": 0.05,
    },
    SdkCategory.UNKNOWN: {
        "loadUrl": 0.85, "addJavascriptInterface": 0.35,
        "evaluateJavascript": 0.30, "loadDataWithBaseURL": 0.30,
        "removeJavascriptInterface": 0.10, "loadData": 0.05, "postUrl": 0.05,
    },
}


class SdkProfile:
    """One SDK: identity, packages, mechanisms and calibration targets."""

    def __init__(self, name, category, package_prefixes, webview_apps=0,
                 ct_apps=0, obfuscated=False, unknown_sdk=False,
                 defaults_to_webview=False):
        self.name = name
        self.category = category
        self.package_prefixes = tuple(package_prefixes)
        #: Target number of apps (out of PAPER_TOTAL_APPS) embedding this
        #: SDK's WebView / CT code paths.
        self.webview_apps = int(webview_apps)
        self.ct_apps = int(ct_apps)
        self.obfuscated = obfuscated
        self.unknown_sdk = unknown_sdk
        #: SDKs that support CTs but fall back to WebViews when no browser
        #: supports CTs (Section 4.1.4 hypothesis for the 5/6 dual SDKs).
        self.defaults_to_webview = defaults_to_webview

    @property
    def uses_webview(self):
        return self.webview_apps > 0

    @property
    def uses_customtabs(self):
        return self.ct_apps > 0

    @property
    def uses_both(self):
        return self.uses_webview and self.uses_customtabs

    @property
    def primary_package(self):
        return self.package_prefixes[0]

    @property
    def webview_probability(self):
        return self.webview_apps / PAPER_TOTAL_APPS

    def method_profile(self):
        return METHOD_PROFILES[self.category]

    def __repr__(self):
        return "SdkProfile(%s, %s, wv=%d, ct=%d)" % (
            self.name, self.category.name, self.webview_apps, self.ct_apps
        )


def _sdk(name, category, prefixes, webview_apps=0, ct_apps=0, **kwargs):
    return SdkProfile(name, category, prefixes, webview_apps, ct_apps,
                      **kwargs)


#: The named SDKs from Tables 4 and 5 (app counts straight from the paper).
_NAMED = [
    # -- Advertising (Table 4) --
    _sdk("AppLovin", SdkCategory.ADVERTISING, ["com.applovin"], 27_397),
    _sdk("ironSource", SdkCategory.ADVERTISING, ["com.ironsource"], 16_326),
    _sdk("ByteDance", SdkCategory.ADVERTISING, ["com.bytedance.sdk"], 13_080),
    _sdk("InMobi", SdkCategory.ADVERTISING, ["com.inmobi"], 10_066),
    _sdk("Digital Turbine", SdkCategory.ADVERTISING, ["com.fyber"], 8_654),
    # Advertising SDKs using CTs (all three also use WebViews, 4.1.1).
    _sdk("HyprMX", SdkCategory.ADVERTISING, ["com.hyprmx"], 900, 1_257),
    _sdk("Linkvertise", SdkCategory.ADVERTISING, ["com.linkvertise"], 250, 383),
    _sdk("Taboola", SdkCategory.ADVERTISING, ["com.taboola"], 400, 317),
    # -- Engagement (Table 4; no CT engagement SDKs observed) --
    _sdk("Open Measurement", SdkCategory.ENGAGEMENT, ["com.iab.omid"], 11_333),
    _sdk("SafeDK", SdkCategory.ENGAGEMENT, ["com.safedk"], 7_427),
    _sdk("Airship", SdkCategory.ENGAGEMENT, ["com.urbanairship"], 652),
    _sdk("Branch", SdkCategory.ENGAGEMENT, ["io.branch"], 514),
    # -- Development Tools --
    _sdk("Flutter", SdkCategory.DEV_TOOLS,
         ["io.flutter.plugins.urllauncher"], 5_568),
    _sdk("InAppWebView", SdkCategory.DEV_TOOLS,
         ["com.pichillilorenzo.flutter_inappwebview"], 1_868),
    _sdk("Corona", SdkCategory.DEV_TOOLS, ["com.ansca.corona"], 449),
    _sdk("AdvancedWebView", SdkCategory.DEV_TOOLS,
         ["im.delight.android.webview"], 386),
    _sdk("android-customtabs", SdkCategory.DEV_TOOLS,
         ["saschpe.android.customtabs"], 40, 53, defaults_to_webview=True),
    _sdk("GoodBarber", SdkCategory.DEV_TOOLS, ["com.goodbarber"], 35, 48,
         defaults_to_webview=True),
    _sdk("Mobiroller", SdkCategory.DEV_TOOLS, ["com.mobiroller"], 20, 27,
         defaults_to_webview=True),
    # -- Payments --
    _sdk("Stripe", SdkCategory.PAYMENTS, ["com.stripe"], 1_171),
    _sdk("RazorPay", SdkCategory.PAYMENTS, ["com.razorpay"], 484),
    _sdk("PayTM", SdkCategory.PAYMENTS, ["net.one97.paytm"], 400),
    _sdk("Juspay", SdkCategory.PAYMENTS, ["in.juspay"], 50, 77,
         defaults_to_webview=True),
    _sdk("Ticketmaster Checkout", SdkCategory.PAYMENTS,
         ["com.ticketmaster.checkout"], 30, 47, defaults_to_webview=True),
    _sdk("Checkout", SdkCategory.PAYMENTS, ["com.checkout"], 30, 47,
         defaults_to_webview=True),
    # -- User Support (no CT SDKs observed, 4.1.5) --
    _sdk("Zendesk", SdkCategory.USER_SUPPORT, ["zendesk.support"], 1_000),
    _sdk("Freshchat", SdkCategory.USER_SUPPORT, ["com.freshchat"], 438),
    _sdk("LicensesDialog", SdkCategory.USER_SUPPORT,
         ["de.psdev.licensesdialog"], 129),
    # -- Social --
    _sdk("VK", SdkCategory.SOCIAL, ["com.vk.sdk"], 456),
    _sdk("NAVER", SdkCategory.SOCIAL, ["com.navercorp.nid"], 406, 157),
    _sdk("Kakao", SdkCategory.SOCIAL, ["com.kakao.sdk"], 347, 54),
    _sdk("Facebook", SdkCategory.SOCIAL, ["com.facebook"], 0, 23_234),
    # -- Utility --
    _sdk("NAVER Maps", SdkCategory.UTILITY, ["com.naver.maps"], 130),
    _sdk("Barcode Scanner", SdkCategory.UTILITY, ["com.google.zxing"], 129),
    _sdk("Ticketmaster", SdkCategory.UTILITY, ["com.ticketmaster.presence"],
         64, 55, defaults_to_webview=True),
    _sdk("MyChart", SdkCategory.UTILITY, ["epic.mychart"], 10, 16),
    # -- Authentication --
    # Table 3 implies 6 of the 7 WebView auth SDKs also use CTs; we assign
    # the dual mechanism to NAVER (listed in both tables), Gigya and
    # Firebase, leaving Amazon Identity as the WebView-only holdout.
    _sdk("Gigya", SdkCategory.AUTHENTICATION, ["com.gigya"], 120, 15),
    _sdk("NAVER Identity", SdkCategory.AUTHENTICATION, ["com.nhn.android.login"],
         90, 81),
    _sdk("Amazon Identity", SdkCategory.AUTHENTICATION,
         ["com.amazon.identity"], 37),
    _sdk("Google Firebase", SdkCategory.AUTHENTICATION,
         ["com.google.firebase.auth"], 30, 7_565),
    _sdk("AdobePass", SdkCategory.AUTHENTICATION, ["com.adobe.adobepass"],
         0, 55),
    # -- Hybrid Functionality --
    _sdk("Baby Panda World", SdkCategory.HYBRID, ["com.sinyee.babybus"], 194),
    _sdk("SoftCraft", SdkCategory.HYBRID, ["com.softcraft"], 15, 12),
    _sdk("Cube Storm", SdkCategory.HYBRID, ["com.cubestorm"], 14, 14,
         defaults_to_webview=True),
    _sdk("Scripps News", SdkCategory.HYBRID, ["com.scripps.news"], 10, 13,
         defaults_to_webview=True),
]

#: Obfuscated long-tail package labels (4 in the paper).
_OBFUSCATED_PREFIXES = ["a.a.a", "b.c.d", "o.a", "x.y.z"]


def named_sdks():
    """The SDKs explicitly named in the paper's tables."""
    return list(_NAMED)


def _synthesize_tail(category, mechanism, index):
    """Create a deterministic long-tail SDK (each used by >100 apps)."""
    slug = category.name.lower().replace("_", "")
    if mechanism == "both":
        webview_apps = 110 + 13 * index
        ct_apps = 100 + 7 * index
    elif mechanism == "webview":
        webview_apps = 105 + 17 * (index % 19)
        ct_apps = 0
    else:
        webview_apps = 0
        ct_apps = 102 + 11 * (index % 13)
    name = "%s SDK %d" % (category.value, index + 1)
    prefix = "io.%s.tail%d" % (slug, index + 1)
    return SdkProfile(name, category, [prefix], webview_apps, ct_apps,
                      unknown_sdk=(category == SdkCategory.UNKNOWN))


def build_catalog():
    """Build the complete SDK catalog matching Table 3's per-type counts.

    Returns a list of :class:`SdkProfile` where, for every SDK type, the
    number of profiles using WebViews / CTs / both equals Table 3. Four of
    the Unknown-type WebView SDKs carry obfuscated package prefixes
    (Section 3.1.4's "4 obfuscated labels").
    """
    from repro.errors import CorpusError

    catalog = list(_NAMED)
    by_category = {}
    for profile in catalog:
        by_category.setdefault(profile.category, []).append(profile)

    obfuscated_budget = list(_OBFUSCATED_PREFIXES)
    for category, (wv_target, ct_target, both_target) in (
        TABLE3_SDK_TYPE_COUNTS.items()
    ):
        existing = by_category.get(category, [])
        wv_named = sum(1 for p in existing if p.uses_webview)
        ct_named = sum(1 for p in existing if p.uses_customtabs)
        both_named = sum(1 for p in existing if p.uses_both)

        synth_both = both_target - both_named
        synth_wv_only = (wv_target - wv_named) - synth_both
        synth_ct_only = (ct_target - ct_named) - synth_both
        if min(synth_both, synth_wv_only, synth_ct_only) < 0:
            raise CorpusError(
                "named SDKs for %s exceed Table 3 targets "
                "(wv=%d/%d ct=%d/%d both=%d/%d)"
                % (category.value, wv_named, wv_target, ct_named, ct_target,
                   both_named, both_target)
            )

        index = 0
        for _ in range(synth_both):
            catalog.append(_synthesize_tail(category, "both", index))
            index += 1
        for _ in range(synth_wv_only):
            profile = _synthesize_tail(category, "webview", index)
            if category == SdkCategory.UNKNOWN and obfuscated_budget:
                profile = SdkProfile(
                    "(obfuscated %d)" % (5 - len(obfuscated_budget)),
                    category, [obfuscated_budget.pop()],
                    profile.webview_apps, 0, obfuscated=True,
                    unknown_sdk=True,
                )
            catalog.append(profile)
            index += 1
        for _ in range(synth_ct_only):
            catalog.append(_synthesize_tail(category, "ct", index))
            index += 1

    return catalog
