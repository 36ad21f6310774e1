"""Tests for call-graph construction, entry points, and traversal."""

from repro.android import AndroidManifest, IntentFilter
from repro.android.components import (
    ACTION_MAIN,
    CATEGORY_LAUNCHER,
    Receiver,
    Service,
)
from repro.callgraph import (
    CallGraph,
    build_call_graph,
    entry_point_methods,
    is_lifecycle_method,
)
from repro.callgraph.entrypoints import is_callback_method
from repro.dex import ClassBuilder, DexFile, MethodRef


class TestCallGraphStructure:
    def test_add_edge_creates_nodes(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        assert graph.node_count == 2
        assert graph.edge_count == 1

    def test_reachability(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("x", "y")
        reachable = graph.reachable_from(["a"])
        assert reachable == {"a", "b", "c"}

    def test_reachability_multiple_roots(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        graph.add_edge("x", "y")
        assert graph.reachable_from(["a", "x"]) == {"a", "b", "x", "y"}

    def test_reachability_handles_cycles(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        graph.add_edge("b", "a")
        assert graph.reachable_from(["a"]) == {"a", "b"}

    def test_unknown_roots_ignored(self):
        graph = CallGraph()
        graph.add_node("a")
        assert graph.reachable_from(["missing"]) == set()

    def test_path_exists(self):
        graph = CallGraph()
        graph.add_edge("a", "b")
        assert "b" in graph.reachable_from(["a"])
        assert "a" not in graph.reachable_from(["b"])
        assert "b" not in graph.reachable_from(["zz"])


def app_dex():
    """An app where a reachable and an unreachable path call WebView."""
    activity = ClassBuilder("com.app.MainActivity",
                            superclass="android.app.Activity")
    on_create = activity.method("onCreate", "(android.os.Bundle)void")
    on_create.invoke_direct("com.app.MainActivity", "showPage", "()void")
    on_create.return_void()
    show_page = activity.method("showPage", "()void")
    show_page.new_instance("android.webkit.WebView")
    show_page.const_string("https://example.com")
    show_page.invoke_virtual("android.webkit.WebView", "loadUrl",
                             "(java.lang.String)void")
    show_page.return_void()

    dead = ClassBuilder("com.app.DeadCode")
    unused = dead.method("neverCalled", "()void")
    unused.invoke_virtual("android.webkit.WebView", "loadData",
                          "(java.lang.String,java.lang.String,java.lang.String)void")
    unused.return_void()

    custom = ClassBuilder("com.app.MyWebView",
                          superclass="android.webkit.WebView")
    custom.method("helper", "()void").return_void()

    user = ClassBuilder("com.app.Clicker")
    on_click = user.method("onClick", "(android.view.View)void")
    on_click.invoke_virtual("com.app.MyWebView", "loadUrl",
                            "(java.lang.String)void")
    on_click.return_void()

    return DexFile([activity.build(), dead.build(), custom.build(),
                    user.build()])


def app_manifest():
    manifest = AndroidManifest("com.app")
    manifest.add_activity(
        "com.app.MainActivity", exported=True,
        intent_filters=[IntentFilter(actions=[ACTION_MAIN],
                                     categories=[CATEGORY_LAUNCHER])])
    return manifest


class TestBuilder:
    def test_defined_methods_become_nodes(self):
        graph = build_call_graph(app_dex())
        node = MethodRef("com.app.MainActivity", "onCreate",
                         "(android.os.Bundle)void")
        assert node in graph.reachable_from([node])

    def test_intra_app_edge(self):
        graph = build_call_graph(app_dex())
        caller = MethodRef("com.app.MainActivity", "onCreate",
                           "(android.os.Bundle)void")
        callee = MethodRef("com.app.MainActivity", "showPage", "()void")
        assert callee in graph.reachable_from([caller])

    def test_framework_call_is_external_node(self):
        graph = build_call_graph(app_dex())
        external = MethodRef("android.webkit.WebView", "loadUrl",
                             "(java.lang.String)void")
        assert external in graph.reachable_from([external])

    def test_subclass_receiver_preserved(self):
        """Calls on a custom WebView subclass keep the subclass receiver."""
        graph = build_call_graph(app_dex())
        subclass_call = MethodRef("com.app.MyWebView", "loadUrl",
                                  "(java.lang.String)void")
        assert subclass_call in graph.reachable_from([subclass_call])

    def test_superclass_resolution_of_defined_method(self):
        base = ClassBuilder("a.Base")
        base.method("shared", "()void").return_void()
        derived = ClassBuilder("a.Derived", superclass="a.Base")
        derived.method("m", "()void").invoke_virtual(
            "a.Derived", "shared", "()void").return_void()
        dex = DexFile([base.build(), derived.build()])
        graph = build_call_graph(dex)
        caller = MethodRef("a.Derived", "m", "()void")
        resolved = MethodRef("a.Base", "shared", "()void")
        assert resolved in graph.reachable_from([caller])


class TestEntryPoints:
    def test_lifecycle_detection(self):
        assert is_lifecycle_method("onCreate")
        assert is_lifecycle_method("onReceive")
        assert not is_lifecycle_method("helperMethod")

    def test_callback_detection(self):
        assert is_callback_method("onClick")
        assert not is_callback_method("loadUrl")

    def test_manifest_scoped_entry_points(self):
        entry_points = entry_point_methods(app_dex(), app_manifest())
        names = {(c.name, m.name) for c, m in entry_points}
        assert ("com.app.MainActivity", "onCreate") in names
        assert ("com.app.Clicker", "onClick") in names
        assert ("com.app.DeadCode", "neverCalled") not in names

    def test_without_manifest_all_lifecycle_methods(self):
        entry_points = entry_point_methods(app_dex())
        names = {m.name for _, m in entry_points}
        assert "onCreate" in names

    def test_component_subclass_entry_point(self):
        base = ClassBuilder("a.BaseActivity",
                            superclass="android.app.Activity")
        base.method("onCreate", "(android.os.Bundle)void").return_void()
        child = ClassBuilder("a.ChildActivity", superclass="a.BaseActivity")
        child.method("onResume", "()void").return_void()
        dex = DexFile([base.build(), child.build()])
        manifest = AndroidManifest("a.app")
        manifest.add_activity("a.BaseActivity")
        entry_points = entry_point_methods(dex, manifest)
        names = {(c.name, m.name) for c, m in entry_points}
        assert ("a.ChildActivity", "onResume") in names

    def test_service_lifecycle(self):
        service_cls = ClassBuilder("a.Sync", superclass="android.app.Service")
        service_cls.method("onStartCommand",
                           "(android.content.Intent,int,int)int").return_void()
        dex = DexFile([service_cls.build()])
        manifest = AndroidManifest("a.app")
        manifest.components.append(Service("a.Sync"))
        entry_points = entry_point_methods(dex, manifest)
        assert [(c.name, m.name) for c, m in entry_points] == [
            ("a.Sync", "onStartCommand")
        ]

    def test_receiver_entry_point(self):
        receiver_cls = ClassBuilder("a.Boot")
        receiver_cls.method(
            "onReceive", "(android.content.Context,android.content.Intent)void"
        ).return_void()
        dex = DexFile([receiver_cls.build()])
        manifest = AndroidManifest("a.app")
        manifest.components.append(Receiver("a.Boot"))
        entry_points = entry_point_methods(dex, manifest)
        assert len(entry_points) == 1


class TestTraversalIntegration:
    def test_dead_code_not_reachable(self):
        """The paper's entry-point traversal excludes dead code."""
        dex = app_dex()
        graph = build_call_graph(dex)
        roots = [
            MethodRef(c.name, m.name, m.descriptor)
            for c, m in entry_point_methods(dex, app_manifest())
        ]
        reachable = graph.reachable_from(roots)
        live_call = MethodRef("android.webkit.WebView", "loadUrl",
                              "(java.lang.String)void")
        dead_call = MethodRef(
            "android.webkit.WebView", "loadData",
            "(java.lang.String,java.lang.String,java.lang.String)void")
        assert live_call in reachable
        assert dead_call not in reachable

    def test_subclass_call_reachable_via_callback(self):
        dex = app_dex()
        graph = build_call_graph(dex)
        roots = [
            MethodRef(c.name, m.name, m.descriptor)
            for c, m in entry_point_methods(dex, app_manifest())
        ]
        reachable = graph.reachable_from(roots)
        assert MethodRef("com.app.MyWebView", "loadUrl",
                         "(java.lang.String)void") in reachable
