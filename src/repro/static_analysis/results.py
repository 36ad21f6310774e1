"""Result records for the static pipeline."""

from repro.android.api import (
    WEBVIEW_CONTENT_METHODS,
    CT_LAUNCH_METHOD,
)
from repro.sdk.labeling import PackageLabel


class RecordedCall:
    """One WebView API call or CT initialization found in an app.

    ``reachable`` reflects entry-point traversal; ``excluded`` the
    deep-link filter. Only reachable, non-excluded calls count toward the
    paper's usage statistics — both raw flags are retained so ablation
    benchmarks can re-aggregate without re-analysis.
    """

    __slots__ = ("kind", "method", "caller_class", "receiver_class",
                 "reachable", "excluded")

    WEBVIEW = "webview"
    CUSTOMTABS = "customtabs"

    def __init__(self, kind, method, caller_class, receiver_class,
                 reachable=True, excluded=False):
        self.kind = kind
        self.method = method
        self.caller_class = caller_class
        self.receiver_class = receiver_class
        self.reachable = reachable
        self.excluded = excluded

    @property
    def caller_package(self):
        if "." not in self.caller_class:
            return ""
        return self.caller_class.rsplit(".", 1)[0]

    @property
    def counts(self):
        """True if this call contributes to usage statistics."""
        return self.reachable and not self.excluded

    @property
    def is_content_call(self):
        """True for calls that populate content (used for SDK labelling)."""
        if self.kind == RecordedCall.WEBVIEW:
            return self.method in WEBVIEW_CONTENT_METHODS
        return self.method == CT_LAUNCH_METHOD

    def __repr__(self):
        return "RecordedCall(%s.%s from %s%s%s)" % (
            self.kind, self.method, self.caller_class,
            "" if self.reachable else " [unreachable]",
            " [excluded]" if self.excluded else "",
        )


class AppAnalysis:
    """Per-app output of the static pipeline."""

    def __init__(self, package, category=None, installs=0):
        self.package = package
        self.category = category
        self.installs = installs
        #: The analyzed APK's sha256, attached at aggregation time so
        #: persistent stores can key per-app outcomes by content.
        self.sha256 = ""
        self.calls = []
        self.webview_subclasses = set()
        self.class_count = 0
        self.failed = False
        self.failure_reason = None

    # -- call recording ----------------------------------------------------

    def record(self, call):
        self.calls.append(call)

    def counting_calls(self, kind=None):
        """Calls that survive reachability + deep-link filtering."""
        return [
            call for call in self.calls
            if call.counts and (kind is None or call.kind == kind)
        ]

    # -- usage properties -----------------------------------------------------

    @property
    def uses_webview(self):
        return any(
            call.kind == RecordedCall.WEBVIEW
            for call in self.counting_calls()
        )

    @property
    def uses_customtabs(self):
        return any(
            call.kind == RecordedCall.CUSTOMTABS
            for call in self.counting_calls()
        )

    @property
    def uses_both(self):
        return self.uses_webview and self.uses_customtabs

    def webview_methods_used(self):
        """Distinct WebView API methods called (Table 7 rows)."""
        return {
            call.method
            for call in self.counting_calls(RecordedCall.WEBVIEW)
        }

    # -- SDK attribution -----------------------------------------------------

    def invoking_packages(self, kind):
        """Java packages whose classes make content-populating calls."""
        packages = set()
        for call in self.counting_calls(kind):
            if not call.is_content_call:
                continue
            if call.caller_package:
                packages.add(call.caller_package)
        return packages

    def label_sdks(self, labeler):
        """Label invoking packages; returns an :class:`SdkAttribution`."""
        attribution = SdkAttribution()
        for kind, bucket in (
            (RecordedCall.WEBVIEW, attribution.webview),
            (RecordedCall.CUSTOMTABS, attribution.customtabs),
        ):
            for package in self.invoking_packages(kind):
                if package == self.package or package.startswith(
                    self.package + "."
                ):
                    bucket.first_party = True
                    continue
                label = labeler.label(package)
                if label.status == PackageLabel.KNOWN:
                    bucket.sdks.add(label.sdk)
                elif label.status == PackageLabel.OBFUSCATED:
                    bucket.obfuscated_packages.add(package)
                    if label.sdk is not None:
                        bucket.sdks.add(label.sdk)
                elif label.status == PackageLabel.EXCLUDED:
                    bucket.excluded_packages.add(package)
                else:
                    bucket.unknown_packages.add(package)
        return attribution

    def __repr__(self):
        return "AppAnalysis(%s, wv=%s, ct=%s, %d calls)" % (
            self.package, self.uses_webview, self.uses_customtabs,
            len(self.calls),
        )


class _MechanismAttribution:
    def __init__(self):
        self.sdks = set()
        self.first_party = False
        self.unknown_packages = set()
        self.obfuscated_packages = set()
        self.excluded_packages = set()

    @property
    def uses_top_sdks(self):
        return bool(self.sdks)


class SdkAttribution:
    """SDK labelling outcome for one app, split by mechanism."""

    def __init__(self):
        self.webview = _MechanismAttribution()
        self.customtabs = _MechanismAttribution()


class OutcomeRecord:
    """One APK's completed analysis outcome, as stored and carried.

    This is the value the two result stores share — the in-memory
    :class:`~repro.exec.AnalysisCache` tier and the persistent
    :class:`~repro.longitudinal.RunStore` — keyed by ``(sha256,
    options fingerprint)`` in both. ``error`` is a drop-taxonomy slug
    (None on success). Analysis is a pure function of the APK bytes and
    the options, so replaying a stored record into a
    :class:`StudyResult` is byte-identical to re-running the analysis.
    """

    __slots__ = ("analysis", "error", "message")

    def __init__(self, analysis, error=None, message=None):
        self.analysis = analysis
        self.error = error
        self.message = message

    @property
    def failed(self):
        return self.error is not None

    def __repr__(self):
        return "OutcomeRecord(%s%s)" % (
            self.analysis.package,
            ", error=%s" % self.error if self.error else "",
        )


class StudyResult:
    """Whole-study output: the Table 2 funnel plus per-app analyses."""

    def __init__(self, labeler):
        self.labeler = labeler
        # Table 2 funnel counters.
        self.androzoo_play_apps = 0
        self.found_on_play = 0
        self.popular = 0
        self.selected = 0
        self.analyzed = 0
        self.broken = 0
        self.analyses = []

    def add(self, analysis):
        self.analyses.append(analysis)

    # -- aggregate views -----------------------------------------------------

    def successful(self):
        return [a for a in self.analyses if not a.failed]

    def webview_apps(self):
        return [a for a in self.successful() if a.uses_webview]

    def customtabs_apps(self):
        return [a for a in self.successful() if a.uses_customtabs]

    def both_apps(self):
        return [a for a in self.successful() if a.uses_both]

    def funnel_dict(self):
        return {
            "androzoo_play_apps": self.androzoo_play_apps,
            "found_on_play": self.found_on_play,
            "with_100k_downloads": self.popular,
            "updated_after_2021": self.selected,
            "successfully_analyzed": self.analyzed,
        }

    def __repr__(self):
        return "StudyResult(%d analyzed, %d webview, %d ct)" % (
            self.analyzed, len(self.webview_apps()),
            len(self.customtabs_apps()),
        )
