"""Tests for the Java lexer, parser, and code generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dex import AccessFlag, ClassBuilder
from repro.errors import JavaSyntaxError
from repro.javasrc import (
    MethodCall,
    Literal,
    Name,
    TokenKind,
    generate_source,
    parse_java,
    tokenize,
)
from repro.javasrc import ast
from repro.static_analysis.webview_usage import (
    class_web_source_facts,
    webview_subclasses_from_entries,
)


def string_literals(method):
    """Every string literal in ``method``'s body, in walk order."""
    return [expression.value for expression in method.walk_expressions()
            if isinstance(expression, Literal)
            and expression.java_type == "String"]


def webview_subclasses(source):
    """The paper's 3.1.2 subclass step, as the pipeline runs it."""
    return webview_subclasses_from_entries(class_web_source_facts(source))


class TestLexer:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("public class Foo")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[2].kind == TokenKind.IDENTIFIER
        assert tokens[2].value == "Foo"

    def test_string_literal_with_escapes(self):
        tokens = tokenize(r'"a\nb\"c"')
        assert tokens[0].kind == TokenKind.STRING
        assert tokens[0].value == 'a\nb"c'

    def test_unicode_escape(self):
        tokens = tokenize(r'"A"')
        assert tokens[0].value == "A"

    def test_unterminated_string_raises(self):
        with pytest.raises(JavaSyntaxError):
            tokenize('"abc')

    def test_char_literal(self):
        tokens = tokenize(r"'x' '\n'")
        assert tokens[0].kind == TokenKind.CHAR
        assert tokens[0].value == "x"
        assert tokens[1].value == "\n"

    def test_numbers(self):
        tokens = tokenize("42 0x1F 3.14 2e10 7L 1.5f")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [
            TokenKind.INT, TokenKind.INT, TokenKind.FLOAT,
            TokenKind.FLOAT, TokenKind.INT, TokenKind.FLOAT,
        ]

    def test_comments_stripped(self):
        tokens = tokenize("a // line\n/* block\nmore */ b")
        values = [t.value for t in tokens[:-1]]
        assert values == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(JavaSyntaxError):
            tokenize("/* never ends")

    def test_multichar_operators(self):
        tokens = tokenize("a >>= b != c")
        assert tokens[1].value == ">>="
        assert tokens[3].value == "!="

    def test_line_numbers(self):
        tokens = tokenize("a\nb")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_unexpected_character(self):
        with pytest.raises(JavaSyntaxError):
            tokenize("a ` b")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == TokenKind.EOF


SAMPLE = """
package com.example.webview;

import android.webkit.WebView;
import android.app.Activity;

public class BrowserActivity extends Activity {
    private WebView webView;
    private int count;

    public void onCreate(android.os.Bundle savedInstanceState) {
        super.onCreate(savedInstanceState);
        WebView webView1 = new WebView(this);
        this.webView = webView1;
        webView1.getSettings().setJavaScriptEnabled(true);
        webView1.loadUrl("https://example.com/start");
        if (this.count > 0) {
            webView1.evaluateJavascript("console.log(1)", null);
        } else {
            webView1.reload();
        }
    }

    private String buildUrl(String path, int page) {
        return "https://example.com/" + path + "?page=" + page;
    }
}
"""


class TestParser:
    def test_package_and_imports(self):
        unit = parse_java(SAMPLE)
        assert unit.package == "com.example.webview"
        assert "android.webkit.WebView" in unit.imports

    def test_class_declaration(self):
        unit = parse_java(SAMPLE)
        cls = unit.types[0]
        assert cls.name == "BrowserActivity"
        assert cls.extends == "Activity"

    def test_resolve_extends_through_import(self):
        unit = parse_java(SAMPLE)
        assert unit.resolve_type(unit.types[0].extends) == "android.app.Activity"

    def test_classes_extending(self):
        source = SAMPLE.replace("extends Activity", "extends WebView")
        assert webview_subclasses(source) == {
            "com.example.webview.BrowserActivity"}

    def test_fields(self):
        cls = parse_java(SAMPLE).types[0]
        assert [f.name for f in cls.fields] == ["webView", "count"]
        assert cls.fields[0].type_name == "WebView"

    def test_method_parameters(self):
        cls = parse_java(SAMPLE).types[0]
        on_create = cls.methods[0]
        assert on_create.name == "onCreate"
        assert on_create.parameters == [
            ("android.os.Bundle", "savedInstanceState")
        ]

    def test_method_calls_extracted(self):
        cls = parse_java(SAMPLE).types[0]
        calls = {c.name for c in cls.methods[0].method_calls()}
        assert {"loadUrl", "evaluateJavascript", "reload",
                "setJavaScriptEnabled", "getSettings", "onCreate"} <= calls

    def test_calls_inside_if_branches_found(self):
        cls = parse_java(SAMPLE).types[0]
        calls = [c for c in cls.methods[0].method_calls()
                 if c.name == "reload"]
        assert len(calls) == 1

    def test_string_literals_extracted(self):
        cls = parse_java(SAMPLE).types[0]
        strings = set(string_literals(cls.methods[0]))
        assert "https://example.com/start" in strings

    def test_receiver_dotted(self):
        cls = parse_java(SAMPLE).types[0]
        load_url = [c for c in cls.methods[0].method_calls()
                    if c.name == "loadUrl"][0]
        assert load_url.target.parts == ["webView1"]

    def test_interface_parsing(self):
        unit = parse_java(
            "package a; public interface Callback { void onDone(int code); }"
        )
        cls = unit.types[0]
        assert cls.is_interface
        assert cls.methods[0].body is None

    def test_inner_class(self):
        unit = parse_java("""
            package a;
            public class Outer {
                public class Inner extends Base { }
            }
        """)
        outer = unit.types[0]
        assert outer.inner_classes[0].name == "Inner"
        assert unit.resolve_type(outer.inner_classes[0].extends) == "a.Base"

    def test_enum_parsing(self):
        unit = parse_java("""
            package a;
            public enum Mode { FAST, SLOW(1);
                public int speed() { return 0; }
            }
        """)
        assert unit.types[0].methods[0].name == "speed"

    def test_generics_in_types(self):
        unit = parse_java("""
            package a;
            public class Box {
                private java.util.Map<String, java.util.List<Integer>> items;
                public void put(java.util.List<String> values) { }
            }
        """)
        assert unit.types[0].fields[0].name == "items"

    def test_cast_expression(self):
        unit = parse_java("""
            package a;
            public class C {
                public void m(Object o) {
                    ((android.webkit.WebView) o).loadUrl("https://x.com");
                }
            }
        """)
        calls = list(unit.types[0].methods[0].method_calls())
        assert calls[0].name == "loadUrl"
        assert calls[0].target.type_name == "android.webkit.WebView"

    def test_static_initializer(self):
        unit = parse_java("""
            package a;
            public class C {
                static { init(); }
            }
        """)
        assert unit.types[0].methods[0].name == "<clinit>"

    def test_constructor(self):
        unit = parse_java("""
            package a;
            public class C {
                public C(int x) { this.x = x; }
                private int x;
            }
        """)
        assert unit.types[0].methods[0].name == "<init>"

    def test_multi_field_declaration(self):
        unit = parse_java("package a; public class C { int a, b, c; }")
        assert [f.name for f in unit.types[0].fields] == ["a", "b", "c"]

    def test_annotations_skipped(self):
        unit = parse_java("""
            package a;
            public class C {
                @Override
                @SuppressWarnings("unchecked")
                public void m() { }
            }
        """)
        assert unit.types[0].methods[0].name == "m"

    def test_syntax_error_reports_location(self):
        with pytest.raises(JavaSyntaxError) as excinfo:
            parse_java("package a; public class C { void m() { x +; } }")
        assert excinfo.value.line is not None

    def test_ternary_and_array_access(self):
        unit = parse_java("""
            package a;
            public class C {
                public int m(int[] xs, boolean f) {
                    return f ? xs[0] : xs[1];
                }
            }
        """)
        assert unit.types[0].methods[0].name == "m"

    def test_anonymous_class_body_skipped(self):
        unit = parse_java("""
            package a;
            public class C {
                public void m() {
                    run(new Runnable() { public void run() { } });
                }
            }
        """)
        calls = list(unit.types[0].methods[0].method_calls())
        assert calls[0].name == "run"

    def test_default_package(self):
        unit = parse_java("public class C { }")
        assert unit.package is None
        assert unit.resolve_type("C") == "C"

    def test_wildcard_import(self):
        unit = parse_java("package a; import java.util.*; public class C { }")
        assert "java.util.*" in unit.imports


def webview_subclass():
    builder = ClassBuilder("com.vendor.sdk.CustomWebView",
                          superclass="android.webkit.WebView")
    builder.field("initialized", "boolean")
    ctor = builder.constructor("(android.content.Context)void")
    ctor.invoke_super("android.webkit.WebView", "<init>",
                      "(android.content.Context)void")
    ctor.return_void()
    method = builder.method("open", "(java.lang.String)void")
    method.const_string("https://sdk.vendor.com/page")
    method.invoke_virtual("android.webkit.WebView", "loadUrl",
                          "(java.lang.String)void")
    method.return_void()
    return builder.build()


class TestCodegen:
    def test_generated_source_parses(self):
        source = generate_source(webview_subclass())
        unit = parse_java(source)
        assert unit.package == "com.vendor.sdk"

    def test_extends_resolves_to_webview(self):
        source = generate_source(webview_subclass())
        assert webview_subclasses(source) == {"com.vendor.sdk.CustomWebView"}

    def test_import_emitted(self):
        source = generate_source(webview_subclass())
        assert "import android.webkit.WebView;" in source

    def test_invokes_surface_as_calls(self):
        source = generate_source(webview_subclass())
        unit = parse_java(source)
        open_method = [m for m in unit.types[0].methods if m.name == "open"][0]
        calls = [c.name for c in open_method.method_calls()]
        assert "loadUrl" in calls

    def test_string_constant_preserved(self):
        source = generate_source(webview_subclass())
        unit = parse_java(source)
        open_method = [m for m in unit.types[0].methods if m.name == "open"][0]
        assert "https://sdk.vendor.com/page" in string_literals(open_method)

    def test_static_call_rendering(self):
        builder = ClassBuilder("a.b.C")
        method = builder.method("m")
        method.invoke_static("a.b.util.Helper", "doWork", "()void")
        method.return_void()
        source = generate_source(builder.build())
        assert "Helper.doWork();" in source
        unit = parse_java(source)
        call = list(unit.types[0].methods[0].method_calls())[0]
        assert call.name == "doWork"

    def test_field_assignment_rendering(self):
        builder = ClassBuilder("a.b.C")
        builder.field("url", "java.lang.String")
        method = builder.method("m")
        method.const_string("x")
        method.emit(0x59, ("a.b.C", "url"))  # IPUT
        method.return_void()
        source = generate_source(builder.build())
        assert 'this.url = "x";' in source
        parse_java(source)

    def test_string_escaping_roundtrip(self):
        builder = ClassBuilder("a.b.C")
        tricky = 'line1\nline2\t"quoted" \\ end'
        method = builder.method("m")
        method.const_string(tricky)
        method.invoke_virtual("android.webkit.WebView", "loadUrl",
                              "(java.lang.String)void")
        method.return_void()
        unit = parse_java(generate_source(builder.build()))
        literal = string_literals(unit.types[0].methods[0])[0]
        assert literal == tricky

    def test_abstract_class_rendering(self):
        builder = ClassBuilder("a.b.C", flags=(AccessFlag.PUBLIC
                                               | AccessFlag.ABSTRACT))
        builder.method("m").return_void()
        source = generate_source(builder.build())
        assert "public abstract class C" in source
        parse_java(source)

    def test_conflicting_simple_names_stay_qualified(self):
        builder = ClassBuilder("a.b.C")
        method = builder.method("m")
        method.invoke_static("x.one.Helper", "h1", "()void")
        method.invoke_static("x.two.Helper", "h2", "()void")
        method.return_void()
        source = generate_source(builder.build())
        assert "x.two.Helper.h2();" in source
        parse_java(source)

    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60,
    ))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_url_strings_roundtrip(self, value):
        builder = ClassBuilder("a.b.C")
        method = builder.method("m")
        method.const_string(value)
        method.invoke_virtual("android.webkit.WebView", "loadUrl",
                              "(java.lang.String)void")
        method.return_void()
        unit = parse_java(generate_source(builder.build()))
        literal = string_literals(unit.types[0].methods[0])[0]
        assert literal == value
