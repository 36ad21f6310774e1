"""Privacy nutrition labels for third-party web content (Section 5).

The paper's closing proposal: "Future research could consider including
WebView usage for third-party content as a metric in the 'privacy
nutrition labels' displayed on the app store." This module derives such a
label from a static analysis result — mechanisms used, attack surface
exposed (JS bridges / injection capability), and the SDK use cases
involved — and grades the app's web-content hygiene.
"""

from repro.sdk.catalog import SdkCategory

#: SDK types whose WebView use handles sensitive data (paper's takeaways).
SENSITIVE_TYPES = (
    SdkCategory.PAYMENTS,
    SdkCategory.AUTHENTICATION,
    SdkCategory.SOCIAL,
)


class NutritionLabel:
    """One app's third-party-web-content label."""

    def __init__(self, package):
        self.package = package
        self.displays_web_content = False
        self.uses_webview = False
        self.uses_customtabs = False
        self.exposes_js_bridge = False
        self.can_inject_js = False
        self.sensitive_webview_types = []
        self.webview_sdk_types = []
        self.ct_sdk_types = []
        self.first_party_only = False

    @property
    def grade(self):
        """A-F hygiene grade.

        A: no embedded web content, or CTs only.
        B: WebView for first-party content only (the intended use).
        C: third-party WebView content, no injection surface.
        D: injection surface (JS bridge or injected JS) exposed.
        F: sensitive use cases (payments/auth/social login) on WebViews
           with an injection surface.
        """
        if not self.displays_web_content:
            return "A"
        if not self.uses_webview:
            return "A"
        if self.first_party_only:
            return "B"
        surface = self.exposes_js_bridge or self.can_inject_js
        if self.sensitive_webview_types and surface:
            return "F"
        if surface:
            return "D"
        return "C"

    def disclosure_lines(self):
        """The store-facing disclosure text."""
        lines = []
        if not self.displays_web_content:
            lines.append("This app does not embed web content.")
            return lines
        if self.uses_customtabs:
            lines.append(
                "Opens web content in your browser (Custom Tabs): pages "
                "are isolated from the app."
            )
        if self.uses_webview:
            if self.first_party_only:
                lines.append(
                    "Embeds the developer's own web content in a WebView."
                )
            else:
                lines.append(
                    "Displays third-party web content inside the app "
                    "(WebView): the app can observe these pages."
                )
        if self.exposes_js_bridge:
            lines.append(
                "Exposes app code to web pages via a JavaScript bridge."
            )
        if self.can_inject_js:
            lines.append(
                "Can run its own JavaScript inside web pages you visit."
            )
        for sdk_type in self.sensitive_webview_types:
            lines.append(
                "Uses a %s integration over WebViews — sensitive data may "
                "transit an app-controlled page." % sdk_type.value.lower()
            )
        return lines

    def __repr__(self):
        return "NutritionLabel(%s, grade=%s)" % (self.package, self.grade)


def make_label(package, uses_webview, uses_customtabs, exposes_js_bridge,
               can_inject_js, first_party_only, webview_sdk_types,
               ct_sdk_types):
    """Assemble a label from an app's facts and its SDK categories.

    The one reduction behind :func:`build_label`, which derives the
    facts from a live analysis, and the served
    ``ResultsService.nutrition_label``, which reads them from stored
    rows. The category collections may hold each category once in any
    order; the label sorts them.
    """
    label = NutritionLabel(package)
    label.uses_webview = bool(uses_webview)
    label.uses_customtabs = bool(uses_customtabs)
    label.displays_web_content = label.uses_webview or label.uses_customtabs
    label.exposes_js_bridge = bool(exposes_js_bridge)
    label.can_inject_js = bool(can_inject_js)
    label.first_party_only = bool(first_party_only)
    label.webview_sdk_types = sorted(webview_sdk_types,
                                     key=lambda c: c.value)
    label.ct_sdk_types = sorted(ct_sdk_types, key=lambda c: c.value)
    label.sensitive_webview_types = [
        c for c in label.webview_sdk_types if c in SENSITIVE_TYPES
    ]
    return label


def build_label(analysis, attribution):
    """Derive a label from an AppAnalysis + its SdkAttribution."""
    methods = analysis.webview_methods_used()
    webview = attribution.webview
    return make_label(
        analysis.package,
        analysis.uses_webview,
        analysis.uses_customtabs,
        exposes_js_bridge="addJavascriptInterface" in methods,
        can_inject_js="evaluateJavascript" in methods,
        first_party_only=(
            analysis.uses_webview
            and webview.first_party
            and not webview.sdks
            and not webview.unknown_packages
            and not webview.obfuscated_packages
        ),
        webview_sdk_types={sdk.category for sdk in webview.sdks},
        ct_sdk_types={sdk.category for sdk in attribution.customtabs.sdks},
    )


def label_study(result, limit=None):
    """Label every successfully analyzed app in a StudyResult."""
    labels = []
    for analysis in result.successful()[:limit]:
        attribution = analysis.label_sdks(result.labeler)
        labels.append(build_label(analysis, attribution))
    return labels


def grade_distribution(labels):
    """Grade -> count over a set of labels."""
    distribution = {grade: 0 for grade in "ABCDF"}
    for label in labels:
        distribution[label.grade] += 1
    return distribution
