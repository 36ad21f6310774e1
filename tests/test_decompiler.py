"""Tests for the JADX-like decompiler."""

import pytest

from repro.apk import ApkBuilder, read_apk
from repro.decompiler import Decompiler
from repro.dex import ClassBuilder
from repro.errors import BrokenApkError, DecompilationError
from repro.javasrc import parse_java
from repro.static_analysis.webview_usage import (
    class_web_source_facts,
    webview_subclasses_from_entries,
)


def find_webview_subclasses(decompiled):
    """The pipeline's subclass step over every decompiled source."""
    return webview_subclasses_from_entries([
        entry for source in decompiled.sources.values()
        for entry in class_web_source_facts(source)
    ])


def sample_apk_bytes():
    builder = ApkBuilder("com.decomp.app")
    builder.manifest.add_activity("com.decomp.app.MainActivity",
                                  exported=True)
    activity = ClassBuilder("com.decomp.app.MainActivity",
                            superclass="android.app.Activity")
    method = activity.method("onCreate", "(android.os.Bundle)void")
    method.new_instance("android.webkit.WebView")
    method.const_string("https://example.com")
    method.invoke_virtual("android.webkit.WebView", "loadUrl",
                          "(java.lang.String)void")
    method.return_void()
    builder.add_class(activity.build())

    custom = ClassBuilder("com.decomp.app.widget.MyWebView",
                          superclass="android.webkit.WebView")
    custom.method("setup", "()void").return_void()
    builder.add_class(custom.build())
    return builder.build_bytes()


class TestDecompiler:
    def test_decompiles_all_classes(self):
        decompiler = Decompiler()
        decompiled = decompiler.decompile_bytes(sample_apk_bytes())
        assert set(decompiled.class_names) == {
            "com.decomp.app.MainActivity",
            "com.decomp.app.widget.MyWebView",
        }
        assert decompiled.failed_classes == []

    def test_sources_parse_back(self):
        decompiled = Decompiler().decompile_bytes(sample_apk_bytes())
        for class_name in decompiled.class_names:
            unit = parse_java(decompiled.source_for(class_name))
            assert unit.types

    def test_manifest_xml_recovered(self):
        decompiled = Decompiler().decompile_bytes(sample_apk_bytes())
        assert 'package="com.decomp.app"' in decompiled.manifest_xml
        assert "MainActivity" in decompiled.manifest_xml

    def test_source_for_missing_raises(self):
        decompiled = Decompiler().decompile_bytes(sample_apk_bytes())
        with pytest.raises(DecompilationError):
            decompiled.source_for("com.missing.Class")

    def test_broken_apk_propagates(self):
        decompiler = Decompiler()
        with pytest.raises(BrokenApkError):
            decompiler.decompile_bytes(b"\x00" * 128)
        # A failed container parse never counts as an attempt succeeded.
        assert decompiler.apks_succeeded == 0

    def test_statistics_accumulate(self):
        decompiler = Decompiler()
        decompiler.decompile_bytes(sample_apk_bytes())
        decompiler.decompile_bytes(sample_apk_bytes())
        assert decompiler.apks_attempted == 2
        assert decompiler.apks_succeeded == 2
        assert decompiler.classes_emitted == 4

    def test_subclass_detection_on_decompiled_output(self):
        """The pipeline step the decompiler exists for."""
        decompiled = Decompiler().decompile_bytes(sample_apk_bytes())
        subclasses = find_webview_subclasses(decompiled)
        assert subclasses == {"com.decomp.app.widget.MyWebView"}

    def test_transitive_subclasses_found(self):
        builder = ApkBuilder("com.deep.app")
        builder.manifest.add_activity("com.deep.app.Main", exported=True)
        base = ClassBuilder("com.deep.app.BaseWebView",
                            superclass="android.webkit.WebView")
        base.method("m", "()void").return_void()
        child = ClassBuilder("com.deep.app.FancyWebView",
                             superclass="com.deep.app.BaseWebView")
        child.method("n", "()void").return_void()
        main = ClassBuilder("com.deep.app.Main",
                            superclass="android.app.Activity")
        main.method("onCreate", "(android.os.Bundle)void").return_void()
        builder.add_classes([base.build(), child.build(), main.build()])
        decompiled = Decompiler().decompile_bytes(builder.build_bytes())
        subclasses = find_webview_subclasses(decompiled)
        assert subclasses == {
            "com.deep.app.BaseWebView", "com.deep.app.FancyWebView",
        }

    def test_decompile_apk_object_directly(self):
        apk = read_apk(sample_apk_bytes())
        decompiled = Decompiler().decompile_apk(apk)
        assert decompiled.package == "com.decomp.app"
