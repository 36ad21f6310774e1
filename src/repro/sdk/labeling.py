"""Package -> SDK labelling (Section 3.1.4).

The pipeline extracts the Java package of every class that populates
content into a WebView or launches a CT, then labels it: Google's own
``com.google.android`` is excluded, known SDK prefixes resolve through the
Play SDK Index, single-letter obfuscated packages are flagged, and the rest
are "unknown" — reproducing the paper's 126-categorized / 4-obfuscated /
10-unassociated split.
"""

from repro.playstore.sdkindex import PlaySdkIndex, SdkIndexEntry
from repro.sdk.catalog import GOOGLE_ANDROID_PREFIX, SdkCategory


class PackageLabel:
    """The labelling outcome for one Java package."""

    KNOWN = "known"
    OBFUSCATED = "obfuscated"
    UNKNOWN = "unknown"
    EXCLUDED = "excluded"

    def __init__(self, package, status, sdk=None):
        self.package = package
        self.status = status
        self.sdk = sdk  # SdkProfile when status == KNOWN

    @property
    def category(self):
        if self.sdk is not None:
            return self.sdk.category
        if self.status in (PackageLabel.OBFUSCATED, PackageLabel.UNKNOWN):
            return SdkCategory.UNKNOWN
        return None

    def __repr__(self):
        return "PackageLabel(%s, %s, sdk=%s)" % (
            self.package, self.status,
            self.sdk.name if self.sdk else None,
        )


def looks_obfuscated(java_package):
    """Heuristic for ProGuard-style obfuscated packages: short, opaque
    single-letter (or two-letter) segments such as ``a.b.c`` or ``o.a``."""
    parts = java_package.split(".")
    if len(parts) < 2:
        return False
    short = sum(1 for part in parts if len(part) <= 2)
    return short / len(parts) >= 0.75


class SdkLabeler:
    """Labels invoking Java packages against an SDK catalog."""

    def __init__(self, catalog):
        self.catalog = list(catalog)
        self._index = PlaySdkIndex()
        self._entry_to_profile = {}
        for profile in self.catalog:
            entry = SdkIndexEntry(
                profile.name, profile.category, profile.package_prefixes
            )
            self._index.register(entry)
            self._entry_to_profile[id(entry)] = profile

    def label(self, java_package):
        """Label one Java package (see module docstring for the policy)."""
        if java_package == GOOGLE_ANDROID_PREFIX or java_package.startswith(
            GOOGLE_ANDROID_PREFIX + "."
        ):
            return PackageLabel(java_package, PackageLabel.EXCLUDED)
        entry = self._index.lookup_package(java_package)
        if entry is not None:
            profile = self._entry_to_profile[id(entry)]
            if profile.obfuscated:
                return PackageLabel(java_package, PackageLabel.OBFUSCATED,
                                    sdk=profile)
            return PackageLabel(java_package, PackageLabel.KNOWN, sdk=profile)
        if looks_obfuscated(java_package):
            return PackageLabel(java_package, PackageLabel.OBFUSCATED)
        return PackageLabel(java_package, PackageLabel.UNKNOWN)
