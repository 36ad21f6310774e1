"""Tests for the Android platform model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android import (
    Activity,
    AndroidManifest,
    Intent,
    IntentFilter,
    IntentResolution,
    XmlElement,
    api,
    decode_axml,
    encode_axml,
    resolve_intent,
)
from repro.android.components import (
    ACTION_MAIN,
    ACTION_VIEW,
    CATEGORY_BROWSABLE,
    CATEGORY_LAUNCHER,
    Service,
)
from repro.dex import MethodRef
from repro.errors import ManifestError
from repro.static_analysis.pipeline import _is_webview_call
from repro.static_analysis.results import RecordedCall


class TestAxml:
    def test_roundtrip_simple(self):
        root = XmlElement("manifest", {"package": "com.x.y"})
        root.add(XmlElement("application"))
        assert decode_axml(encode_axml(root)) == root

    def test_bad_magic(self):
        with pytest.raises(ManifestError):
            decode_axml(b"nope")

    def test_truncated(self):
        data = encode_axml(XmlElement("a", {"k": "v"}))
        with pytest.raises(ManifestError):
            decode_axml(data[:-3])

    def test_to_xml_escapes(self):
        element = XmlElement("tag", {"attr": 'a"<>&'})
        xml = element.to_xml()
        assert "&quot;" in xml and "&lt;" in xml and "&amp;" in xml

    def test_find_and_find_all(self):
        root = XmlElement("r")
        root.add(XmlElement("c", {"i": "1"}))
        root.add(XmlElement("c", {"i": "2"}))
        root.add(XmlElement("other"))
        assert len(root.find_all("c")) == 2
        assert root.find("c").get("i") == "1"
        assert root.find("missing") is None

    def test_iter_depth_first(self):
        root = XmlElement("a")
        b = root.add(XmlElement("b"))
        b.add(XmlElement("c"))
        assert [e.tag for e in root.iter()] == ["a", "b", "c"]

    _tags = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)

    @st.composite
    def _elements(draw, depth=0):
        tags = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
        tag = draw(tags)
        attrs = draw(st.dictionaries(tags, st.text(max_size=15), max_size=4))
        children = []
        if depth < 2:
            children = draw(st.lists(
                TestAxml._elements(depth=depth + 1), max_size=3))
        return XmlElement(tag, attrs, children)

    @given(_elements())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, element):
        assert decode_axml(encode_axml(element)) == element


class TestIntentFilter:
    def test_browsable_web_detection(self):
        f = IntentFilter(actions=[ACTION_VIEW],
                         categories=[CATEGORY_BROWSABLE], schemes=["https"])
        assert f.is_browsable_web

    def test_browsable_without_web_scheme(self):
        f = IntentFilter(actions=[ACTION_VIEW],
                         categories=[CATEGORY_BROWSABLE], schemes=["myapp"])
        assert not f.is_browsable_web

    def test_launcher_detection(self):
        f = IntentFilter(actions=[ACTION_MAIN], categories=[CATEGORY_LAUNCHER])
        assert f.is_launcher

    def test_matching_requires_action(self):
        f = IntentFilter(actions=[ACTION_VIEW], schemes=["https"])
        assert f.matches(ACTION_VIEW, scheme="https")
        assert not f.matches("other.ACTION", scheme="https")

    def test_matching_scheme_constraint(self):
        f = IntentFilter(actions=[ACTION_VIEW], schemes=["https"])
        assert not f.matches(ACTION_VIEW, scheme="ftp")

    def test_matching_host_wildcards(self):
        f = IntentFilter(actions=[ACTION_VIEW], schemes=["https"],
                         hosts=["*.example.com"])
        assert f.matches(ACTION_VIEW, scheme="https", host="www.example.com")
        assert f.matches(ACTION_VIEW, scheme="https", host="example.com")
        assert not f.matches(ACTION_VIEW, scheme="https", host="evil.com")

    def test_element_roundtrip(self):
        f = IntentFilter(actions=[ACTION_VIEW],
                         categories=[CATEGORY_BROWSABLE],
                         schemes=["https"], hosts=["example.com"])
        assert IntentFilter.from_element(f.to_element()) == f


class TestComponents:
    def test_deep_link_requires_exported(self):
        f = IntentFilter(actions=[ACTION_VIEW],
                         categories=[CATEGORY_BROWSABLE], schemes=["http"])
        assert Activity("A", exported=True, intent_filters=[f]).is_deep_link_handler
        assert not Activity("A", exported=False,
                            intent_filters=[f]).is_deep_link_handler

    def test_empty_name_rejected(self):
        with pytest.raises(ManifestError):
            Activity("")

    def test_element_roundtrip(self):
        activity = Activity("com.x.A", exported=True, intent_filters=[
            IntentFilter(actions=[ACTION_MAIN], categories=[CATEGORY_LAUNCHER])
        ])
        assert Activity.from_element(activity.to_element()) == activity


class TestManifest:
    def make(self):
        manifest = AndroidManifest("com.example.app", version_code=3,
                                   permissions=["android.permission.INTERNET"])
        manifest.add_activity(
            "com.example.app.MainActivity", exported=True,
            intent_filters=[IntentFilter(actions=[ACTION_MAIN],
                                         categories=[CATEGORY_LAUNCHER])])
        manifest.add_activity(
            "com.example.app.LinkActivity", exported=True,
            intent_filters=[IntentFilter(actions=[ACTION_VIEW],
                                         categories=[CATEGORY_BROWSABLE],
                                         schemes=["https"],
                                         hosts=["example.com"])])
        manifest.components.append(Service("com.example.app.SyncService"))
        return manifest

    def test_package_validation(self):
        with pytest.raises(ManifestError):
            AndroidManifest("nodots")

    def test_axml_roundtrip(self):
        manifest = self.make()
        assert AndroidManifest.from_axml_bytes(manifest.to_axml_bytes()) == manifest

    def test_component_accessors(self):
        manifest = self.make()
        assert len(manifest.activities) == 2
        assert [c.kind for c in manifest.components].count("service") == 1
        assert [a.name for a in manifest.activities
                if any(f.is_launcher for f in a.intent_filters)] == [
            "com.example.app.MainActivity"]

    def test_deep_link_activities(self):
        manifest = self.make()
        assert [a.name for a in manifest.deep_link_activities()] == [
            "com.example.app.LinkActivity"
        ]

    def test_to_xml_contains_package(self):
        assert 'package="com.example.app"' in self.make().to_xml()

    def test_from_element_rejects_wrong_root(self):
        with pytest.raises(ManifestError):
            AndroidManifest.from_element(XmlElement("application"))

    def test_component_by_name(self):
        manifest = self.make()
        names = [c.name for c in manifest.components]
        assert "com.example.app.SyncService" in names
        assert "missing" not in names


class TestIntents:
    def test_web_uri_detection(self):
        assert Intent.view("https://example.com/page").is_web_uri
        assert not Intent.view("myapp://deep").is_web_uri

    def test_host_parsing(self):
        intent = Intent.view("https://maps.google.com/place/x")
        assert intent.host == "maps.google.com"
        assert intent.scheme == "https"

    def test_host_with_port(self):
        assert Intent.view("http://localhost:8080/x").host == "localhost"

    def test_web_uri_defaults_to_browser(self):
        resolution = resolve_intent(Intent.view("https://example.com"), [])
        assert resolution.kind == IntentResolution.BROWSER
        assert resolution.handler == "com.android.chrome"

    def test_app_link_overrides_browser(self):
        manifest = AndroidManifest("com.google.maps")
        manifest.add_activity(
            "com.google.maps.MapsActivity", exported=True,
            intent_filters=[IntentFilter(actions=[ACTION_VIEW],
                                         categories=[CATEGORY_BROWSABLE],
                                         schemes=["https"],
                                         hosts=["maps.google.com"])])
        resolution = resolve_intent(
            Intent.view("https://maps.google.com/place"), [manifest])
        assert resolution.kind == IntentResolution.APP_LINK
        assert resolution.handler == "com.google.maps"

    def test_app_link_requires_host_match(self):
        manifest = AndroidManifest("com.google.maps")
        manifest.add_activity(
            "com.google.maps.MapsActivity", exported=True,
            intent_filters=[IntentFilter(actions=[ACTION_VIEW],
                                         categories=[CATEGORY_BROWSABLE],
                                         schemes=["https"],
                                         hosts=["maps.google.com"])])
        resolution = resolve_intent(
            Intent.view("https://other.com/x"), [manifest])
        assert resolution.kind == IntentResolution.BROWSER

    def test_non_web_component_resolution(self):
        manifest = AndroidManifest("com.x.app")
        manifest.add_activity(
            "com.x.app.ShareActivity", exported=True,
            intent_filters=[IntentFilter(actions=["android.intent.action.SEND"])])
        resolution = resolve_intent(Intent("android.intent.action.SEND"),
                                    [manifest])
        assert resolution.kind == IntentResolution.COMPONENT
        assert resolution.component == "com.x.app.ShareActivity"

    def test_unhandled(self):
        resolution = resolve_intent(Intent("custom.ACTION"), [])
        assert resolution.kind == IntentResolution.UNHANDLED


def content_call(ref):
    """The pipeline's record of a WebView call to ``ref``."""
    return RecordedCall(RecordedCall.WEBVIEW, ref.method_name,
                        "com.app.Caller", ref.class_name)


class TestApiSurface:
    def test_webview_method_detection(self):
        ref = MethodRef(api.WEBVIEW_CLASS, "loadUrl", "(java.lang.String)void")
        assert _is_webview_call(ref, set())
        assert content_call(ref).is_content_call

    def test_non_content_webview_method(self):
        ref = MethodRef(api.WEBVIEW_CLASS, "addJavascriptInterface")
        assert _is_webview_call(ref, set())
        assert not content_call(ref).is_content_call

    def test_unrelated_class_not_detected(self):
        ref = MethodRef("com.other.Class", "loadUrl")
        assert not _is_webview_call(ref, set())
        assert _is_webview_call(ref, {"com.other.Class"})

    def test_ct_launch_detection(self):
        ref = MethodRef(api.CUSTOMTABS_INTENT_CLASS, "launchUrl",
                        api.CT_LAUNCH_DESCRIPTOR)
        assert api.is_customtabs_init(ref)

    def test_ct_builder_detection(self):
        ref = MethodRef(api.CUSTOMTABS_BUILDER_CLASS, "build")
        assert api.is_customtabs_init(ref)

    def test_tracked_method_list_matches_table7(self):
        assert set(api.WEBVIEW_TRACKED_METHODS) == {
            "loadUrl", "addJavascriptInterface", "loadDataWithBaseURL",
            "evaluateJavascript", "removeJavascriptInterface", "loadData",
            "postUrl",
        }

    def test_comparison_matrix_favors_ct(self):
        for row in api.COMPARISON_MATRIX:
            assert row["customtabs"] and not row["webview"]
