"""Tests for the JS interpreter and the DOM bridge."""

import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from repro.dynamic import scripts
from repro.dynamic.device import Device
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.errors import JsRuntimeError, JsSyntaxError
from repro.netstack.network import Network
from repro.web.html5_testpage import build_test_document
from repro.web.jsdom import DomBridge
from repro.web.jsengine import (
    JsInterpreter,
    JsArray,
    JsObject,
    TaintedNum,
    TaintedStr,
    UNDEFINED,
    default_script_cache,
    json_stringify,
    record_script_events,
    script_cache_key,
    script_cache_override,
    script_digest,
    taint_enabled,
    taint_labels,
    taint_override,
    taint_wrap,
    to_string,
)
from repro.web.webapi import WebApiRecorder


def evaluate(expression, globals_map=None):
    interpreter = JsInterpreter(globals_map)
    return interpreter.run("__result = (%s);" % expression), interpreter


def result_of(source, globals_map=None):
    interpreter = JsInterpreter(globals_map)
    interpreter.run(source)
    return interpreter.global_scope.lookup("__result")


#: Numbers for the int32 operators: in and out of the int32 range,
#: fractional, NaN and the infinities.
_INT32_OPERANDS = st.one_of(
    st.integers(-2**31, 2**31 - 1).map(float),
    st.integers(-2**60, 2**60).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     2.0**31, -2.0**31 - 1, 2.0**32, 0.5, -0.5]),
)


def _int32_reference(operator, left, right):
    """ECMAScript's ToInt32/ToUint32 arithmetic, written independently
    of the interpreter."""
    def uint32(value):
        if math.isnan(value) or math.isinf(value):
            return 0
        return int(value) % 2**32

    def int32(value):
        value = uint32(value)
        return value - 2**32 if value >= 2**31 else value

    shift = uint32(right) % 32
    if operator == "&":
        result = int32(left) & int32(right)
    elif operator == "|":
        result = int32(left) | int32(right)
    elif operator == "^":
        result = int32(left) ^ int32(right)
    elif operator == "<<":
        result = int32(int32(left) << shift)
    elif operator == ">>":
        result = int32(left) >> shift
    else:
        result = uint32(left) >> shift
    return float(result)


def _js_number(value):
    """JS source for a number, parenthesized so unary minus binds."""
    if math.isnan(value):
        return "(0/0)"
    if math.isinf(value):
        return "(1/0)" if value > 0 else "(-1/0)"
    return "(%r)" % value


class TestExpressions:
    def test_arithmetic(self):
        assert evaluate("1 + 2 * 3")[0] == 7.0

    def test_string_concat(self):
        assert evaluate("'a' + 1 + 'b'")[0] == "a1b"

    def test_comparison(self):
        assert evaluate("3 > 2")[0] is True
        assert evaluate("'a' < 'b'")[0] is True

    def test_strict_equality(self):
        assert evaluate("1 === 1")[0] is True
        assert evaluate("'1' === '1'")[0] is True
        assert evaluate("null === null")[0] is True

    def test_logical_short_circuit(self):
        assert evaluate("false && explode()")[0] is False
        assert evaluate("true || explode()")[0] is True

    def test_ternary(self):
        assert evaluate("1 < 2 ? 'yes' : 'no'")[0] == "yes"

    def test_bitwise(self):
        assert evaluate("(1 << 4) | 3")[0] == 19.0
        assert evaluate("255 & 15")[0] == 15.0
        assert evaluate("5 ^ 1")[0] == 4.0
        assert evaluate("-1 >>> 28")[0] == 15.0

    def test_modulo(self):
        assert evaluate("10 % 3")[0] == 1.0

    def test_typeof(self):
        assert evaluate("typeof 'x'")[0] == "string"
        assert evaluate("typeof 1")[0] == "number"
        assert evaluate("typeof undefined")[0] == "undefined"
        assert evaluate("typeof missingVariable")[0] == "undefined"

    def test_unary(self):
        assert evaluate("!0")[0] is True
        assert evaluate("-'5'")[0] == -5.0
        assert evaluate("~0")[0] == -1.0

    def test_division_by_zero(self):
        assert evaluate("1 / 0")[0] == float("inf")

    @pytest.mark.parametrize("expression,expected", [
        ("String(0/0)", "NaN"),
        ("(0/0).toString()", "NaN"),
        ("'' + 1/0", "Infinity"),
        ("String(-1/0)", "-Infinity"),
        ("JSON.stringify([1/0, 0/0, 2])", "[null,null,2]"),
        ("(1/0).toFixed(1)", "Infinity"),
        ("Math.round(0/0)", float("nan")),
        ("Math.floor(0/0)", float("nan")),
        ("Math.ceil(-1/0)", float("-inf")),
        ("Math.round(-2.6)", -3.0),
        ("Math.round(2.5)", 3.0),
        ("Math.max()", float("-inf")),
        ("Math.min()", float("inf")),
        ("Math.max(1, 0/0)", float("nan")),
        ("Math.abs()", float("nan")),
        ("Math.floor()", float("nan")),
        ("Math.pow(2)", float("nan")),
        ("Math.pow(10, 400)", float("inf")),
        ("Math.pow(-10, 401)", float("-inf")),
        ("Math.pow(0, -1)", float("inf")),
        ("Math.pow(-8, 1/3)", float("nan")),
        ("Math.pow(1, 0/0)", float("nan")),
        ("Math.pow(-1, 1/0)", float("nan")),
        ("Math.pow(1, 1/0)", float("nan")),
        ("Math.pow(0/0, 0)", 1.0),
        ("(1/0) % 2", float("nan")),
    ])
    def test_non_finite_numbers_and_math_follow_js(self, expression,
                                                   expected):
        # Python's ValueError/OverflowError/IndexError must not escape
        # the runtime: they are not JsError, so no caller catches them.
        assert repr(evaluate(expression)[0]) == repr(expected)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_property(self, a, b):
        assert evaluate("%d + %d" % (a, b))[0] == float(a + b)

    @given(st.sampled_from(["&", "|", "^", "<<", ">>", ">>>"]),
           _INT32_OPERANDS, _INT32_OPERANDS)
    def test_shift_matches_int32_semantics(self, operator, left, right):
        expected = _int32_reference(operator, left, right)
        # Once as named operands, once as literals in the source.
        assert evaluate("a %s b" % operator,
                        {"a": left, "b": right})[0] == expected
        assert evaluate("%s %s %s" % (_js_number(left), operator,
                                      _js_number(right)))[0] == expected


class TestStatements:
    def test_var_and_assignment(self):
        assert result_of("var x = 1; x += 4; __result = x;") == 5.0

    def test_if_else(self):
        source = """
        var x = 10;
        if (x > 5) { __result = 'big'; } else { __result = 'small'; }
        """
        assert result_of(source) == "big"

    def test_while_loop(self):
        source = """
        var total = 0; var i = 0;
        while (i < 5) { total += i; i++; }
        __result = total;
        """
        assert result_of(source) == 10.0

    def test_for_loop(self):
        source = """
        var total = 0;
        for (var i = 1; i <= 4; i++) { total += i; }
        __result = total;
        """
        assert result_of(source) == 10.0

    def test_for_in(self):
        source = """
        var obj = {a: 1, b: 2, c: 3};
        var keys = [];
        for (var k in obj) { keys.push(k); }
        __result = keys.join(',');
        """
        assert result_of(source) == "a,b,c"

    def test_break_continue(self):
        source = """
        var hits = 0;
        for (var i = 0; i < 10; i++) {
          if (i % 2 === 0) { continue; }
          if (i > 6) { break; }
          hits++;
        }
        __result = hits;
        """
        assert result_of(source) == 3.0

    def test_functions_and_closures(self):
        source = """
        function makeCounter() {
          var n = 0;
          return function() { n++; return n; };
        }
        var counter = makeCounter();
        counter(); counter();
        __result = counter();
        """
        assert result_of(source) == 3.0

    def test_iife_with_args(self):
        source = "__result = (function(a, b){ return a * b; }(6, 7));"
        assert result_of(source) == 42.0

    def test_function_hoisting_in_body(self):
        source = """
        function outer() { return helper() + 1; function helper() { return 1; } }
        __result = outer();
        """
        assert result_of(source) == 2.0

    def test_try_catch(self):
        source = """
        var out = 'none';
        try { throw 'boom'; } catch (e) { out = 'caught:' + e; }
        __result = out;
        """
        assert result_of(source) == "caught:boom"

    def test_uncaught_throw_surfaces(self):
        with pytest.raises(JsRuntimeError):
            JsInterpreter().run("throw 'unhandled';")

    def test_syntax_error(self):
        with pytest.raises(JsSyntaxError):
            JsInterpreter().run("var = 1;")

    @pytest.mark.parametrize("source", [
        "return 1;",
        "break;",
        "continue;",
        "while (true) { (function () { break; })(); }",
        "function f() { if (true) { continue; } }",
    ])
    def test_misplaced_jump_is_a_syntax_error(self, source):
        with pytest.raises(JsSyntaxError):
            JsInterpreter().run(source)

    def test_break_inside_a_function_inside_a_loop(self):
        source = """
        var hits = 0;
        for (var i = 0; i < 3; i++) {
          (function () {
            while (true) { hits++; break; }
            for (var k in {a: 1, b: 2}) { continue; }
          })();
        }
        __result = hits;
        """
        assert result_of(source) == 3.0

    def test_execution_budget(self):
        with pytest.raises(JsRuntimeError):
            JsInterpreter().run("while (true) { var x = 1; }")


class TestObjectsArraysStrings:
    def test_object_literal_and_index(self):
        source = """
        var o = {name: 'x', 'two': 2};
        o['three'] = 3;
        o.four = 4;
        __result = o.name + o.two + o['three'] + o.four;
        """
        assert result_of(source) == "x234"

    def test_array_operations(self):
        source = """
        var a = [3, 1, 2];
        a.push(4);
        __result = a.length + ':' + a.join('-') + ':' + a.indexOf(2);
        """
        assert result_of(source) == "4:3-1-2-4:2"

    def test_string_methods(self):
        source = """
        var s = 'Hello World';
        __result = s.toLowerCase() + '|' + s.charCodeAt(0) + '|' +
                   s.indexOf('World') + '|' + s.substring(0, 5) + '|' +
                   s.split(' ').length;
        """
        assert result_of(source) == "hello world|72|6|Hello|2"

    def test_json_stringify(self):
        source = "__result = JSON.stringify({a: 1, b: [1, 'x'], c: null});"
        assert result_of(source) == '{"a":1,"b":[1,"x"],"c":null}'

    def test_json_stringify_escapes(self):
        assert json_stringify('he said "hi"\n') == '"he said \\"hi\\"\\n"'

    def test_console_log(self):
        interpreter = JsInterpreter()
        interpreter.run("console.log('a', 1); console.warn('b');")
        assert interpreter.console_log == [
            ("log", "a 1"), ("warn", "b"),
        ]

    def test_math(self):
        assert result_of("__result = Math.floor(3.9) + Math.max(1, 5);") == 8.0

    def test_parse_int(self):
        assert result_of("__result = parseInt('42px');") == 42.0
        assert result_of("__result = parseInt('ff', 16);") == 255.0

    def test_to_string(self):
        assert to_string(UNDEFINED) == "undefined"
        assert to_string(None) == "null"
        assert to_string(3.0) == "3"
        assert to_string(JsArray([1.0, "a"])) == "1,a"
        assert to_string(JsObject()) == "[object Object]"

    def test_member_of_undefined_raises(self):
        with pytest.raises(JsRuntimeError):
            JsInterpreter().run("var x; x.property;")

    def test_array_map_filter(self):
        source = """
        var xs = [1, 2, 3, 4];
        __result = xs.map(function(x){ return x * x; })
                     .filter(function(x){ return x > 4; })
                     .join(',');
        """
        assert result_of(source) == "9,16"

    def test_array_some_every(self):
        source = """
        var xs = [2, 4, 6];
        __result = '' + xs.every(function(x){ return x % 2 === 0; }) +
                   xs.some(function(x){ return x > 5; }) +
                   xs.some(function(x){ return x > 50; });
        """
        assert result_of(source) == "truetruefalse"

    def test_array_sort_reverse(self):
        source = """
        var xs = ['pear', 'apple', 'mango'];
        __result = xs.sort().join(',') + '|' + xs.reverse().join(',');
        """
        assert result_of(source) == "apple,mango,pear|pear,mango,apple"

    def test_map_requires_callback(self):
        with pytest.raises(JsRuntimeError):
            JsInterpreter().run("[1].map();")

    def test_array_callbacks_count_against_the_budget(self):
        # 12,000 callbacks of 100 iterations each: about five times the
        # budget, so the run stops once the callbacks' steps are counted.
        source = """
        var xs = [];
        for (var k = 0; k < 200; k++) { xs.push(k); }
        var total = 0;
        for (var n = 0; n < 60; n++) {
          xs.forEach(function (x) {
            for (var j = 0; j < 100; j++) { total += 1; }
          });
        }
        """
        with pytest.raises(JsRuntimeError, match="execution budget"):
            JsInterpreter().run(source)

    def test_new_object(self):
        source = """
        function Point(x, y) { this.x = x; this.y = y; }
        var p = new Point(3, 4);
        __result = p.x + p.y;
        """
        assert result_of(source) == 7.0

    @pytest.mark.parametrize("expression,expected", [
        # Index reads: only an integer in [0, length) reads an element.
        ("[1, 2][0/0]", UNDEFINED),
        ("[1, 2][1/0]", UNDEFINED),
        ("[1, 2][1.5]", UNDEFINED),
        ("[1, 2][-0.5]", UNDEFINED),
        ("'abc'[0/0]", UNDEFINED),
        ("'abc'[1.5]", UNDEFINED),
        # Integer arguments: NaN is 0, the infinities clamp.
        ("'abc'.charCodeAt(0/0)", 97.0),
        ("'abc'.charAt(0/0)", "a"),
        ("'abc'.charAt(1/0)", ""),
        ("'abc'.charAt(-1/0)", ""),
        ("'abc'.substring(0/0)", "abc"),
        ("'abc'.substring(1, 1/0)", "bc"),
        ("'abc'.substring(-1/0, 2)", "ab"),
        ("'abc'.slice(1/0)", ""),
        ("'abc'.slice(-1/0, 0/0)", ""),
        ("[1, 2, 3].slice(1/0).join(',')", ""),
        ("[1, 2, 3].slice(-1/0).join(',')", "1,2,3"),
        ("[1, 2, 3].slice(0/0, 1/0).join(',')", "1,2,3"),
        ("(1.25).toFixed(0/0)", "1"),
        # A string key reads an element only when it spells an index.
        ("[1, 2]['01']", UNDEFINED),
        ("'abc'['1.0']", UNDEFINED),
        # parseInt reads its radix with ToInt32: 0 means 10, and a radix
        # outside 2..36 gives NaN.
        ("parseInt('12', 1/0)", 12.0),
        ("parseInt('12', 0/0)", 12.0),
        ("isNaN(parseInt('0', 1))", True),
        ("isNaN(parseInt('12', 37))", True),
    ])
    def test_non_integer_index_and_argument_follow_js(self, expression,
                                                      expected):
        assert result_of("__result = %s;" % expression) == expected

    @pytest.mark.parametrize("expression,expected", [
        ("[1, 2][-0]", 1.0),
        ("'abc'.charAt(1.9)", "b"),
        ("'abc'.slice(-2)", "bc"),
        ("'abc'.substring(2, 0)", "ab"),
        ("[1, 2, 3].slice(1.7).join(',')", "2,3"),
        ("[1, 2, 3].slice(-2, -1).join(',')", "2"),
        ("[1, 2]['1']", 2.0),
        ("'abc'['1']", "b"),
    ])
    def test_integer_valued_index_and_argument_still_read(self, expression,
                                                          expected):
        assert result_of("__result = %s;" % expression) == expected

    @pytest.mark.parametrize("length", ["0/0", "1/0", "-1", "1.5"])
    def test_array_length_not_a_uint32_is_a_range_error(self, length):
        with pytest.raises(JsRuntimeError, match="invalid array length"):
            result_of("var a = [1, 2]; a.length = %s;" % length)

    def test_array_length_truncates(self):
        assert result_of("var a = [1, 2, 3]; a.length = 1;"
                         " __result = a.join(',') + a.length;") == "11"

    @pytest.mark.parametrize("digits", ["1/0", "-1", "101"])
    def test_to_fixed_digits_out_of_range_is_a_range_error(self, digits):
        with pytest.raises(JsRuntimeError, match="toFixed"):
            result_of("__result = (1.5).toFixed(%s);" % digits)


class TestDomBridge:
    def make(self):
        document = build_test_document()
        recorder = WebApiRecorder()
        bridge = DomBridge(document, recorder)
        return document, recorder, bridge

    def test_get_element_by_id(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("__result = document.getElementById('title').tagName;")
        assert interpreter.global_scope.lookup("__result") == "H1"
        assert ("Document", "getElementById") in recorder.pairs()

    def test_create_and_insert(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("""
            var el = document.createElement('script');
            el.src = '/injected.js';
            var body = document.body;
            body.insertBefore(el, body.firstChild);
        """)
        scripts = document.get_elements_by_tag_name("script")
        assert any(s.get_attribute("src") == "/injected.js" for s in scripts)
        assert ("HTMLBodyElement", "insertBefore") in recorder.pairs()

    def test_queryselectorall_nodelist(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("""
            var metas = document.querySelectorAll('meta');
            __result = metas.length + ':' + metas.item(0).getAttribute('charset');
        """)
        assert interpreter.global_scope.lookup("__result") == "3:utf-8"
        assert ("NodeList", "item") in recorder.pairs()
        assert ("HTMLMetaElement", "getAttribute") in recorder.pairs()

    def test_collection_index_access(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run(
            "__result = document.getElementsByTagName('section')[0].id;"
        )
        assert interpreter.global_scope.lookup("__result") == "text"

    def test_window_and_performance(self):
        document, recorder, bridge = self.make()
        bridge.clock_ms = 1234.0
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("__result = performance.now();")
        assert interpreter.global_scope.lookup("__result") == 1234.0

    def test_location(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("__result = location.hostname;")
        assert interpreter.global_scope.lookup("__result") == (
            "measurement.example.org"
        )

    def test_textcontent_read(self):
        document, recorder, bridge = self.make()
        interpreter = JsInterpreter(bridge.globals_map())
        interpreter.run("__result = document.body.textContent.length > 100;")
        assert interpreter.global_scope.lookup("__result") is True


class TestTaintLayer:
    def make_interpreter(self, globals_map=None):
        return JsInterpreter(globals_map)

    def test_tainted_str_is_a_str(self):
        value = TaintedStr("secret", {("test", "x")})
        assert value == "secret"
        assert isinstance(value, str)
        assert taint_labels(value) == frozenset({("test", "x")})
        assert to_string(value) == "secret"

    def test_tainted_num_is_a_float(self):
        value = TaintedNum(7, {("test", "n")})
        assert value == 7.0
        assert value + 1 == 8.0
        assert taint_labels(value) == frozenset({("test", "n")})

    def test_wrap_skips_unlabellable_values(self):
        assert taint_wrap(True, {("test", "x")}) is True
        assert taint_wrap(UNDEFINED, {("test", "x")}) is UNDEFINED
        assert taint_wrap("plain", frozenset()) == "plain"
        assert taint_labels(taint_wrap("plain", frozenset())) == frozenset()

    def test_concat_propagates_labels(self):
        secret = TaintedStr("s3cret", {("test", "src")})
        with taint_override(True):
            interpreter = self.make_interpreter({"secret": secret})
            result = interpreter.run("'payload=' + secret + '!'")
        assert result == "payload=s3cret!"
        assert taint_labels(result) == frozenset({("test", "src")})

    def test_concat_drops_labels_when_taint_off(self):
        secret = TaintedStr("s3cret", {("test", "src")})
        with taint_override(False):
            interpreter = self.make_interpreter({"secret": secret})
            result = interpreter.run("'payload=' + secret")
        assert result == "payload=s3cret"
        assert taint_labels(result) == frozenset()

    def test_json_stringify_collects_embedded_labels(self):
        secret = TaintedStr("tok", {("test", "deep")})
        with taint_override(True):
            interpreter = self.make_interpreter({"secret": secret})
            result = interpreter.run(
                "JSON.stringify({a: {b: secret}, n: 1})")
        assert taint_labels(result) == frozenset({("test", "deep")})

    def test_encode_uri_component_propagates(self):
        secret = TaintedStr("a b", {("test", "enc")})
        with taint_override(True):
            interpreter = self.make_interpreter({"secret": secret})
            result = interpreter.run("encodeURIComponent(secret)")
        assert result == "a%20b"
        assert taint_labels(result) == frozenset({("test", "enc")})

    def test_taint_off_by_default(self):
        assert not taint_enabled()
        with taint_override(True):
            assert taint_enabled()
        assert not taint_enabled()


class TestScriptCacheModeKey:
    """Satellite: the compiled-script cache keys on instrumentation mode."""

    def test_plain_key_is_the_bare_digest(self):
        digest = script_digest("var x;")
        assert script_cache_key(digest, False) == digest
        assert script_cache_key(digest, True) == digest + "#taint"

    def test_modes_never_collide(self):
        digest = script_digest("var x;")
        assert script_cache_key(digest, False) \
            != script_cache_key(digest, True)

    def test_same_source_two_entries_across_modes(self):
        """A taint-instrumented run must not reuse a plain compile: the
        second parse of the same source is a miss, not a hit."""
        cache = default_script_cache()
        cache.clear()
        source = "var regression = 'mode-key';"
        with script_cache_override(True):
            JsInterpreter().run(source)
            assert (cache.hits, cache.misses) == (0, 1)
            with taint_override(True):
                JsInterpreter().run(source)
            assert (cache.hits, cache.misses) == (0, 2)
            assert len(cache) == 2
            # Re-runs in either mode now hit their own entry.
            JsInterpreter().run(source)
            with taint_override(True):
                JsInterpreter().run(source)
            assert (cache.hits, cache.misses) == (2, 2)
        cache.clear()

    def test_event_stream_carries_mode_key(self):
        source = "var ev = 'mode';"
        digest = script_digest(source)
        events = []
        with script_cache_override(False), record_script_events(events):
            JsInterpreter().run(source)
            with taint_override(True):
                JsInterpreter().run(source)
        assert [key for key, _ in events] == [digest, digest + "#taint"]


_TAG_COUNTS = (
    '{"html":1,"head":1,"meta":3,"title":1,"link":1,"body":1,"header":1,'
    '"h1":1,"p":4,"nav":1,"ul":2,"li":6,"a":5,"main":1,"section":3,'
    '"h2":3,"strong":1,"em":1,"code":1,"span":1,"blockquote":1,"table":1,'
    '"tr":3,"th":2,"td":4,"img":1,"video":1,"iframe":1,"form":1,'
    '"input":5,"button":1,"footer":1,"script":1}'
)

#: What each injected script of ``repro.dynamic.scripts`` does on the
#: controlled page: (name, steps, callback result, console log, Web API
#: call count, digest of the rendered Web API log). The same in both
#: taint modes.
_PAPER_SCRIPTS = [
    ("AUTOFILL_LOADER_JS", 37, UNDEFINED, [], 4, "640b4dd1cfd0898f"),
    ("CEDEXIS_RADAR_JS", 25, UNDEFINED, [], 0, "4f53cda18c2baa0c"),
    ("GOOGLE_ADS_BOOTSTRAP_JS", 26, UNDEFINED, [], 0, "4f53cda18c2baa0c"),
    ("KIK_AD_PROBE_JS", 127,
     "viewport=width=device-width, initial-scale=1"
     "&description=HTML5 element test page", [], 10, "bef053b61b8dc7eb"),
    ("PERF_METRICS_JS", 90, UNDEFINED,
     [("log", "perf: domContentLoaded=0ms amp=false readyState=complete"
              " viewport=")], 9, "ee887da3eb9f1811"),
    ("SIMHASH_JS", 1_023_369,
     '{"text":-337182156,"dom":832105084,"combined":-471653836}', [],
     55, "66fe58021a98b567"),
    ("TAG_COUNT_JS", 1748, _TAG_COUNTS, [], 63, "fac7a5470929456b"),
]


class TestPinnedBehaviour:
    """Step counts, budget trip points and outputs the engine must keep."""

    @pytest.mark.parametrize("taint", [False, True])
    @pytest.mark.parametrize(
        "name,steps,result,console,call_count,log_digest", _PAPER_SCRIPTS)
    def test_paper_script(self, taint, name, steps, result, console,
                          call_count, log_digest):
        with taint_override(taint):
            device = Device(network=Network(seed=7, strict=False))
            runtime = WebViewRuntime("com.example.pinned", device)
            runtime.load_test_page()
            results = []
            runtime.evaluateJavascript(getattr(scripts, name),
                                       results.append)
        interpreter = runtime._interpreter
        calls = runtime.recorder.calls
        log = repr([(c.interface, c.method,
                     [str(to_string(a)) for a in c.args]) for c in calls])
        assert results == [result]
        assert interpreter.console_log == console
        assert len(calls) == call_count
        assert hashlib.sha256(log.encode()).hexdigest()[:16] == log_digest
        assert interpreter.steps == steps

    @pytest.mark.parametrize("budget,lines,last,steps", [
        (500, 33, "528", 501),
        (1000, 66, "2145", 1001),
        (4321, 287, "41041", 4322),
    ])
    def test_budget_trip_point(self, budget, lines, last, steps):
        interpreter = JsInterpreter()
        interpreter.MAX_STEPS = budget
        with pytest.raises(JsRuntimeError, match="execution budget"):
            interpreter.run("var s = 0; for (var i = 0; i < 1000; i++) "
                            "{ s += i; console.log(s); }")
        assert len(interpreter.console_log) == lines
        assert interpreter.console_log[-1] == ("log", last)
        assert interpreter.steps == steps
