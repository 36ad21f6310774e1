"""High-level APK assembly used by the corpus generator."""

from repro.android.manifest import AndroidManifest
from repro.apk.container import write_apk
from repro.dex.model import DexFile
from repro.errors import ApkError


class ApkBuilder:
    """Assembles an APK from a manifest, dex classes and resources.

    >>> builder = ApkBuilder("com.example.app")
    >>> builder.manifest.add_activity("com.example.app.MainActivity",
    ...                               exported=True)      # doctest: +ELLIPSIS
    Activity(...)
    >>> data = builder.build_bytes()
    """

    def __init__(self, package, version_code=1, version_name="1.0"):
        self.manifest = AndroidManifest(
            package, version_code=version_code, version_name=version_name
        )
        self.dex = DexFile()
        self.resources = {}

    def add_class(self, dex_class):
        if self.dex.class_by_name(dex_class.name) is not None:
            raise ApkError("duplicate class %r" % dex_class.name)
        self.dex.add_class(dex_class)
        return self

    def add_classes(self, dex_classes):
        for dex_class in dex_classes:
            self.add_class(dex_class)
        return self

    def build_bytes(self):
        """Serialize to APK bytes."""
        return write_apk(self.manifest, self.dex, self.resources)
