"""A JavaScript interpreter for the subset the IAB injections use.

The injected scripts the paper captures (Facebook's autofill loader, DOM
tag counters, simHash probes, ad bootstrap code) are real JS; this module
executes equivalent scripts against the DOM bridge so that the Web API
call log of Table 9 *emerges from execution* rather than being asserted.

Supported subset: var/let/const, function declarations and expressions
(with closures), if/else, for, while, return, expression statements;
assignment (incl. compound), ternary, logical, equality/relational,
arithmetic and bitwise operators, unary ``!``/``-``/``typeof``, postfix
``++``/``--``, calls, ``new``-less object construction via literals, member
and index access, array/object literals, and string/array/number builtins.

Values map to Python: ``null`` -> None, numbers -> float, plus the
:data:`UNDEFINED` sentinel. Bitwise operators coerce through int32 like JS.

Parsing is memoized corpus-wide: the same ~dozen injected scripts are
evaluated against every one of the 100 crawled sites, so the
process-wide :func:`default_script_cache` keys tokenize+parse output on
the script's SHA-256 and hands the (read-only) AST back to each
execution. Interpreter state stays strictly per-execution. The cache is
a :class:`~repro.exec.ClassFactsCache` of kind ``"js"``, so it shares
the class-facts cache's LRU bound, disk layer and corrupt-file rule;
``REPRO_CACHE=0`` disables it.
"""

import contextlib
import contextvars
import hashlib

from repro.errors import JsRuntimeError, JsSyntaxError
from repro.exec.cache import PARSED_SCRIPT_KIND, ClassFactsCache
from repro.exec.config import CACHE_ENV_VAR, _env_flag
from repro.obs.tracing import current_tracer


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(
    "var let const function return if else for while do break continue new"
    " typeof true false null undefined this in of instanceof delete void"
    " throw try catch finally switch case default".split()
)

_PUNCT = sorted(
    [
        "===", "!==", ">>>", "<<=", ">>=", "&&", "||", "==", "!=", "<=",
        ">=", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
        "<<", ">>", "=>", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
        "&", "|", "^", "?", ":", ";", ",", ".", "(", ")", "{", "}", "[",
        "]",
    ],
    key=len,
    reverse=True,
)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
            "0": "\0", "'": "'", '"': '"', "\\": "\\", "/": "/"}


class _Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind  # 'id', 'kw', 'num', 'str', 'punct', 'eof'
        self.value = value
        self.line = line

    def __repr__(self):
        return "_Token(%s, %r)" % (self.kind, self.value)


def _tokenize(source):
    tokens = []
    index = 0
    line = 1
    length = len(source)
    while index < length:
        char = source[index]
        if char in " \t\r":
            index += 1
            continue
        if char == "\n":
            line += 1
            index += 1
            continue
        if source.startswith("//", index):
            end = source.find("\n", index)
            index = length if end < 0 else end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end < 0:
                raise JsSyntaxError("unterminated comment", line=line)
            line += source.count("\n", index, end)
            index = end + 2
            continue
        if char in "'\"":
            quote = char
            index += 1
            chars = []
            while True:
                if index >= length:
                    raise JsSyntaxError("unterminated string", line=line)
                current = source[index]
                if current == quote:
                    index += 1
                    break
                if current == "\n":
                    raise JsSyntaxError("newline in string", line=line)
                if current == "\\":
                    if index + 1 >= length:
                        raise JsSyntaxError("bad escape", line=line)
                    escape = source[index + 1]
                    if escape == "u":
                        try:
                            chars.append(chr(int(source[index + 2: index + 6], 16)))
                        except ValueError:
                            raise JsSyntaxError("bad unicode escape", line=line)
                        index += 6
                        continue
                    chars.append(_ESCAPES.get(escape, escape))
                    index += 2
                    continue
                chars.append(current)
                index += 1
            tokens.append(_Token("str", "".join(chars), line))
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and source[index + 1].isdigit()
        ):
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
                tokens.append(_Token("num", float(int(source[start:index], 16)),
                                     line))
                continue
            while index < length and (source[index].isdigit() or source[index] == "."):
                index += 1
            if index < length and source[index] in "eE":
                index += 1
                if index < length and source[index] in "+-":
                    index += 1
                while index < length and source[index].isdigit():
                    index += 1
            tokens.append(_Token("num", float(source[start:index]), line))
            continue
        if char.isalpha() or char in "_$":
            start = index
            while index < length and (source[index].isalnum() or source[index] in "_$"):
                index += 1
            word = source[start:index]
            tokens.append(
                _Token("kw" if word in _KEYWORDS else "id", word, line)
            )
            continue
        matched = None
        for punct in _PUNCT:
            if source.startswith(punct, index):
                matched = punct
                break
        if matched is None:
            raise JsSyntaxError("unexpected character %r" % char, line=line)
        tokens.append(_Token("punct", matched, line))
        index += len(matched)
    tokens.append(_Token("eof", None, line))
    return tokens


# ---------------------------------------------------------------------------
# Parser (AST as tuples: (kind, ...))
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self):
        return self.tokens[self.pos]

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        token = self.cur
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message):
        raise JsSyntaxError("%s (near %r, line %d)" % (
            message, self.cur.value, self.cur.line), line=self.cur.line)

    def at(self, value):
        return self.cur.kind in ("punct", "kw") and self.cur.value == value

    def accept(self, value):
        if self.at(value):
            return self.advance()
        return None

    def expect(self, value):
        if not self.at(value):
            self.error("expected %r" % value)
        return self.advance()

    # -- program ------------------------------------------------------------

    def parse_program(self):
        body = []
        while self.cur.kind != "eof":
            body.append(self.parse_statement())
        return ("program", body)

    # -- statements ------------------------------------------------------------

    def parse_statement(self):
        if self.at("{"):
            return ("block", self.parse_block())
        if self.at("var") or self.at("let") or self.at("const"):
            statement = self.parse_var_decl()
            self.accept(";")
            return statement
        if self.at("function"):
            return self.parse_function_decl()
        if self.at("return"):
            self.advance()
            expr = None
            if not self.at(";") and not self.at("}") and self.cur.kind != "eof":
                expr = self.parse_expression()
            self.accept(";")
            return ("return", expr)
        if self.at("if"):
            return self.parse_if()
        if self.at("for"):
            return self.parse_for()
        if self.at("while"):
            self.advance()
            self.expect("(")
            condition = self.parse_expression()
            self.expect(")")
            body = self.parse_statement()
            return ("while", condition, body)
        if self.at("break"):
            self.advance()
            self.accept(";")
            return ("break",)
        if self.at("continue"):
            self.advance()
            self.accept(";")
            return ("continue",)
        if self.at("throw"):
            self.advance()
            expr = self.parse_expression()
            self.accept(";")
            return ("throw", expr)
        if self.at("try"):
            return self.parse_try()
        if self.at(";"):
            self.advance()
            return ("empty",)
        expr = self.parse_expression()
        self.accept(";")
        return ("expr", expr)

    def parse_block(self):
        self.expect("{")
        body = []
        while not self.at("}"):
            if self.cur.kind == "eof":
                self.error("unterminated block")
            body.append(self.parse_statement())
        self.expect("}")
        return body

    def parse_var_decl(self):
        self.advance()  # var/let/const
        declarations = []
        while True:
            if self.cur.kind != "id":
                self.error("expected variable name")
            name = self.advance().value
            init = None
            if self.accept("="):
                init = self.parse_assignment()
            declarations.append((name, init))
            if not self.accept(","):
                break
        return ("var", declarations)

    def parse_function_decl(self):
        self.expect("function")
        if self.cur.kind != "id":
            self.error("expected function name")
        name = self.advance().value
        params = self.parse_params()
        body = self.parse_block()
        return ("funcdecl", name, params, body)

    def parse_params(self):
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                if self.cur.kind != "id":
                    self.error("expected parameter name")
                params.append(self.advance().value)
                if not self.accept(","):
                    break
        self.expect(")")
        return params

    def parse_if(self):
        self.expect("if")
        self.expect("(")
        condition = self.parse_expression()
        self.expect(")")
        then_branch = self.parse_statement()
        else_branch = None
        if self.accept("else"):
            else_branch = self.parse_statement()
        return ("if", condition, then_branch, else_branch)

    def parse_for(self):
        self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            if self.at("var") or self.at("let") or self.at("const"):
                init = self.parse_var_decl()
                # for-in support: `for (var k in obj)`
                if self.at("in"):
                    self.advance()
                    target = self.parse_expression()
                    self.expect(")")
                    body = self.parse_statement()
                    return ("forin", init[1][0][0], target, body)
            else:
                init = ("expr", self.parse_expression())
        self.expect(";")
        condition = None
        if not self.at(";"):
            condition = self.parse_expression()
        self.expect(";")
        update = None
        if not self.at(")"):
            update = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ("for", init, condition, update, body)

    def parse_try(self):
        self.expect("try")
        try_body = self.parse_block()
        catch_name, catch_body = None, None
        if self.accept("catch"):
            if self.accept("("):
                if self.cur.kind != "id":
                    self.error("expected catch parameter")
                catch_name = self.advance().value
                self.expect(")")
            catch_body = self.parse_block()
        finally_body = None
        if self.accept("finally"):
            finally_body = self.parse_block()
        return ("try", try_body, catch_name, catch_body, finally_body)

    # -- expressions ------------------------------------------------------------

    def parse_expression(self):
        expr = self.parse_assignment()
        while self.accept(","):
            expr = ("comma", expr, self.parse_assignment())
        return expr

    def parse_assignment(self):
        left = self.parse_ternary()
        for operator in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):
            if self.at(operator):
                self.advance()
                right = self.parse_assignment()
                return ("assign", operator, left, right)
        return left

    def parse_ternary(self):
        condition = self.parse_binary(0)
        if self.accept("?"):
            if_true = self.parse_assignment()
            self.expect(":")
            if_false = self.parse_assignment()
            return ("ternary", condition, if_true, if_false)
        return condition

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("===", "!==", "==", "!="),
        ("<", ">", "<=", ">=", "in", "instanceof"),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level):
        if level >= len(self._LEVELS):
            return self.parse_unary()
        operators = self._LEVELS[level]
        left = self.parse_binary(level + 1)
        while self.cur.value in operators and self.cur.kind in ("punct", "kw"):
            operator = self.advance().value
            right = self.parse_binary(level + 1)
            left = ("binary", operator, left, right)
        return left

    def parse_unary(self):
        if self.cur.kind == "punct" and self.cur.value in ("!", "-", "+", "~"):
            operator = self.advance().value
            return ("unary", operator, self.parse_unary())
        if self.at("typeof"):
            self.advance()
            return ("typeof", self.parse_unary())
        if self.at("void"):
            self.advance()
            return ("void", self.parse_unary())
        if self.cur.value in ("++", "--") and self.cur.kind == "punct":
            operator = self.advance().value
            target = self.parse_unary()
            return ("preincr", operator, target)
        if self.at("new"):
            self.advance()
            callee = self.parse_postfix(no_call=True)
            args = []
            if self.at("("):
                args = self.parse_args()
            return ("new", callee, args)
        return self.parse_postfix()

    def parse_postfix(self, no_call=False):
        expr = self.parse_primary()
        while True:
            if self.at("."):
                self.advance()
                if self.cur.kind not in ("id", "kw"):
                    self.error("expected property name")
                name = self.advance().value
                expr = ("member", expr, name)
                continue
            if self.at("["):
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                expr = ("index", expr, index)
                continue
            if self.at("(") and not no_call:
                args = self.parse_args()
                expr = ("call", expr, args)
                continue
            if self.cur.kind == "punct" and self.cur.value in ("++", "--"):
                operator = self.advance().value
                expr = ("postincr", operator, expr)
                continue
            return expr

    def parse_args(self):
        self.expect("(")
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_assignment())
                if not self.accept(","):
                    break
        self.expect(")")
        return args

    def parse_primary(self):
        token = self.cur
        if token.kind == "num":
            self.advance()
            return ("lit", token.value)
        if token.kind == "str":
            self.advance()
            return ("lit", token.value)
        if self.at("true"):
            self.advance()
            return ("lit", True)
        if self.at("false"):
            self.advance()
            return ("lit", False)
        if self.at("null"):
            self.advance()
            return ("lit", None)
        if self.at("undefined"):
            self.advance()
            return ("lit", UNDEFINED)
        if self.at("this"):
            self.advance()
            return ("this",)
        if self.at("function"):
            self.advance()
            name = None
            if self.cur.kind == "id":
                name = self.advance().value
            params = self.parse_params()
            body = self.parse_block()
            return ("funcexpr", name, params, body)
        if self.at("("):
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if self.at("["):
            self.advance()
            elements = []
            if not self.at("]"):
                while True:
                    elements.append(self.parse_assignment())
                    if not self.accept(","):
                        break
            self.expect("]")
            return ("array", elements)
        if self.at("{"):
            self.advance()
            pairs = []
            if not self.at("}"):
                while True:
                    key_token = self.cur
                    if key_token.kind in ("id", "kw"):
                        key = self.advance().value
                    elif key_token.kind == "str":
                        key = self.advance().value
                    elif key_token.kind == "num":
                        key = _number_to_string(self.advance().value)
                    else:
                        self.error("expected object key")
                    self.expect(":")
                    pairs.append((key, self.parse_assignment()))
                    if not self.accept(","):
                        break
            self.expect("}")
            return ("object", pairs)
        if token.kind == "id":
            self.advance()
            return ("name", token.value)
        self.error("unexpected token")


def parse_js(source):
    """Parse JS source into an AST (a nested tuple tree)."""
    return _Parser(_tokenize(source)).parse_program()


# ---------------------------------------------------------------------------
# Compiled-script cache
# ---------------------------------------------------------------------------

def script_digest(source):
    """The SHA-256 hex digest keying a script in the compiled cache."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


_DEFAULT_SCRIPT_CACHE = None

_SCRIPT_EVENTS = contextvars.ContextVar("repro_script_events", default=None)
_SCRIPT_CACHE_OVERRIDE = contextvars.ContextVar(
    "repro_script_cache_override", default=None
)


def default_script_cache():
    """The process-wide parsed-script cache (created lazily).

    Keyed by :func:`script_cache_key`; values are parsed programs.
    """
    global _DEFAULT_SCRIPT_CACHE
    if _DEFAULT_SCRIPT_CACHE is None:
        _DEFAULT_SCRIPT_CACHE = ClassFactsCache(kind=PARSED_SCRIPT_KIND)
    return _DEFAULT_SCRIPT_CACHE


@contextlib.contextmanager
def record_script_events(events):
    """Collect ``(digest, parse_seconds)`` per interpreter run into ``events``.

    Recording is orthogonal to caching: the stream is identical whether
    the cache is on or off, which is what lets the crawler's replayed
    cache metrics stay byte-identical across configurations.
    """
    token = _SCRIPT_EVENTS.set(events)
    try:
        yield events
    finally:
        _SCRIPT_EVENTS.reset(token)


@contextlib.contextmanager
def script_cache_override(enabled):
    """Force the cache on/off for the enclosed block, overriding the env.

    The crawl and impact shards use this to apply ``ExecConfig.cache``
    in workers independently of ``REPRO_CACHE``.
    """
    token = _SCRIPT_CACHE_OVERRIDE.set(bool(enabled))
    try:
        yield
    finally:
        _SCRIPT_CACHE_OVERRIDE.reset(token)


def _cache_enabled():
    override = _SCRIPT_CACHE_OVERRIDE.get()
    if override is not None:
        return override
    return _env_flag(CACHE_ENV_VAR, True)


def script_cache_key(digest, taint):
    """The cache/event key for a compile: digest plus instrumentation mode.

    Plain compiles keep the bare digest (the historical key, so existing
    event streams and metrics are unchanged); taint-instrumented compiles
    get a ``#taint`` suffix so the two modes never collide in the store.
    """
    return digest + "#taint" if taint else digest


def _parse_for_run(source):
    """Parse for execution, through the compiled cache when enabled.

    Clock parity: exactly two ambient clock reads happen per call in
    every mode (hit, miss, cache off), so a deterministic tick clock
    advances identically — and spans and metrics stay byte-identical —
    whatever the cache configuration.
    """
    clock = current_tracer().clock
    key = script_cache_key(script_digest(source), taint_enabled())
    cache = default_script_cache() if _cache_enabled() else None
    cached = cache.get(key) if cache is not None else None
    started = clock()
    program = cached if cached is not None else parse_js(source)
    elapsed = clock() - started
    if cache is not None and cached is None:
        cache.put(key, program)
    events = _SCRIPT_EVENTS.get()
    if events is not None:
        events.append((key, elapsed))
    return program


# ---------------------------------------------------------------------------
# Taint layer
# ---------------------------------------------------------------------------
#
# Source/sink instrumentation for the injection-impact analysis
# (:mod:`repro.impact`). Values read from a taint source (bridge method
# returns, ``document.cookie``, DOM secrets, Web API reads) are wrapped
# in ``str``/``float`` subclasses that carry a frozenset of labels;
# labels survive the coercions the evaluator already performs (equality,
# truthiness, ``to_string`` on strings) because the wrappers ARE their
# base type. Propagation happens at the ``+`` operator — the string
# concatenation every exfiltration payload is assembled with — plus the
# ``JSON.stringify``/``encodeURIComponent`` builtins, and is gated on a
# per-interpreter flag resolved from :func:`taint_override` so
# uninstrumented runs execute the exact same code paths as before.

class TaintedStr(str):
    """A string carrying taint labels; behaves exactly like ``str``."""

    __slots__ = ("taint_labels",)

    def __new__(cls, value, labels):
        self = super(TaintedStr, cls).__new__(cls, value)
        self.taint_labels = frozenset(labels)
        return self


class TaintedNum(float):
    """A number carrying taint labels; behaves exactly like ``float``."""

    __slots__ = ("taint_labels",)

    def __new__(cls, value, labels):
        self = super(TaintedNum, cls).__new__(cls, value)
        self.taint_labels = frozenset(labels)
        return self


def taint_wrap(value, labels):
    """Wrap a runtime value with taint labels (str/number only).

    Values that cannot carry labels (undefined, booleans, objects) are
    returned unchanged: the analysis tracks data that can actually be
    exfiltrated through a string-shaped channel.
    """
    if not labels:
        return value
    labels = frozenset(labels) | taint_labels(value)
    if isinstance(value, str):
        return TaintedStr(value, labels)
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return TaintedNum(value, labels)
    return value


def taint_labels(value):
    """The frozenset of taint labels on a value (empty when untainted)."""
    return getattr(value, "taint_labels", frozenset())


def _collect_taint_labels(value, _depth=0):
    """All taint labels reachable from a value, including through
    object properties and array elements (``JSON.stringify`` serialises
    the whole graph, so its output inherits every embedded label)."""
    labels = taint_labels(value)
    if _depth > 8:
        return labels
    if isinstance(value, JsObject):
        for prop in value.properties.values():
            labels |= _collect_taint_labels(prop, _depth + 1)
    elif isinstance(value, JsArray):
        for element in value.elements:
            labels |= _collect_taint_labels(element, _depth + 1)
    return labels


_TAINT_OVERRIDE = contextvars.ContextVar("repro_taint_override",
                                         default=False)
_TAINT_FLOWS = contextvars.ContextVar("repro_taint_flows", default=None)


def taint_enabled():
    """Whether taint instrumentation is active (off unless overridden)."""
    return _TAINT_OVERRIDE.get()


@contextlib.contextmanager
def taint_override(enabled):
    """Force taint instrumentation on/off for the enclosed block.

    The impact probes use this to instrument a single attacker replay;
    every other run executes uninstrumented.
    """
    token = _TAINT_OVERRIDE.set(bool(enabled))
    try:
        yield
    finally:
        _TAINT_OVERRIDE.reset(token)


@contextlib.contextmanager
def record_taint_flows(flows):
    """Collect ``(sink, sorted_source_labels)`` tuples into ``flows``.

    Flows are appended in execution order with their source labels
    sorted, so the stream is deterministic for a deterministic script.
    """
    token = _TAINT_FLOWS.set(flows)
    try:
        yield flows
    finally:
        _TAINT_FLOWS.reset(token)


def taint_sink(sink, *values):
    """Report tainted values reaching a sink to the ambient collector.

    ``sink`` is a label tuple such as ``("bridge_arg", name, method)`` or
    ``("network", url)``. Untainted values are ignored; without an
    ambient collector this is a no-op.
    """
    flows = _TAINT_FLOWS.get()
    if flows is None:
        return
    labels = frozenset()
    for value in values:
        labels |= taint_labels(value)
    if labels:
        flows.append((sink, tuple(sorted(labels))))


# ---------------------------------------------------------------------------
# Runtime values
# ---------------------------------------------------------------------------

class JsObject:
    """A plain JS object."""

    def __init__(self, properties=None):
        self.properties = dict(properties or {})

    def get(self, name):
        return self.properties.get(name, UNDEFINED)

    def set(self, name, value):
        self.properties[name] = value

    def keys(self):
        return list(self.properties)

    def __repr__(self):
        return "JsObject(%r)" % self.properties


class JsArray:
    """A JS array."""

    def __init__(self, elements=None):
        self.elements = list(elements or [])

    def __repr__(self):
        return "JsArray(%r)" % self.elements


class JsFunction:
    """A user-defined function (closure)."""

    def __init__(self, name, params, body, scope):
        self.name = name or "(anonymous)"
        self.params = params
        self.body = body
        self.scope = scope

    def __repr__(self):
        return "JsFunction(%s)" % self.name


class NativeFunction:
    """A host function exposed to JS."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __call__(self, args, this=UNDEFINED):
        return self.fn(args, this)

    def __repr__(self):
        return "NativeFunction(%s)" % self.name


class HostObject:
    """Base class for host objects bridged into JS (e.g. DOM nodes).

    Subclasses implement :meth:`js_get` / :meth:`js_set`.
    """

    def js_get(self, name):
        return UNDEFINED

    def js_set(self, name, value):
        raise JsRuntimeError(
            "cannot set %r on %s" % (name, type(self).__name__)
        )


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------

class _Scope:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars = {}
        self.parent = parent

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        raise JsRuntimeError("%s is not defined" % name)

    def assign(self, name, value):
        scope = self
        while scope is not None:
            if name in scope.vars:
                scope.vars[name] = value
                return
            scope = scope.parent
        # Implicit global, like sloppy-mode JS.
        root = self
        while root.parent is not None:
            root = root.parent
        root.vars[name] = value

    def declare(self, name, value):
        self.vars[name] = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Thrown(Exception):
    def __init__(self, value):
        self.value = value


def _number_to_string(value):
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_string(value):
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _number_to_string(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, JsArray):
        return ",".join(to_string(e) for e in value.elements)
    if isinstance(value, JsObject):
        return "[object Object]"
    if isinstance(value, (JsFunction, NativeFunction)):
        return "function %s() { [code] }" % value.name
    return str(value)


def truthy(value):
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0 and value == value  # NaN is falsy
    if isinstance(value, str):
        return bool(value)
    return True


def to_number(value):
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value) if value.strip() else 0.0
        except ValueError:
            return float("nan")
    if value is None:
        return 0.0
    return float("nan")


def _to_int32(value):
    number = to_number(value)
    if number != number or number in (float("inf"), float("-inf")):
        return 0
    result = int(number) & 0xFFFFFFFF
    if result >= 0x80000000:
        result -= 0x100000000
    return result


def json_stringify(value):
    """JSON.stringify for interpreter values."""
    if value is UNDEFINED:
        return "null"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _number_to_string(value)
    if isinstance(value, str):
        escaped = (
            value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
        )
        return '"%s"' % escaped
    if isinstance(value, JsArray):
        return "[%s]" % ",".join(json_stringify(e) for e in value.elements)
    if isinstance(value, JsObject):
        parts = [
            "%s:%s" % (json_stringify(k), json_stringify(v))
            for k, v in value.properties.items()
        ]
        return "{%s}" % ",".join(parts)
    return "null"


def json_parse(text):
    """JSON.parse: JSON text -> interpreter values (JsObject/JsArray)."""
    import json as _json

    try:
        loaded = _json.loads(text)
    except ValueError as exc:
        raise JsRuntimeError("JSON.parse: %s" % exc)

    def convert(value):
        if isinstance(value, dict):
            return JsObject({k: convert(v) for k, v in value.items()})
        if isinstance(value, list):
            return JsArray([convert(v) for v in value])
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, float)):
            return float(value)
        return value

    return convert(loaded)


class JsInterpreter:
    """Executes parsed JS against a set of host globals."""

    MAX_STEPS = 2_000_000

    def __init__(self, globals_map=None):
        self.global_scope = _Scope()
        self.steps = 0
        self.console_log = []
        # Resolved once per interpreter: taint-off runs pay one attribute
        # read per propagation site and execute the historical code paths.
        self._taint = taint_enabled()
        self._install_builtins()
        for name, value in (globals_map or {}).items():
            self.global_scope.declare(name, value)

    # -- public API -------------------------------------------------------------

    def run(self, source):
        """Parse and execute; returns the value of the last expression
        statement (or UNDEFINED)."""
        program = _parse_for_run(source)
        result = UNDEFINED
        try:
            for statement in program[1]:
                value = self.exec_statement(statement, self.global_scope)
                if value is not _NO_VALUE:
                    result = value
        except _Thrown as thrown:
            raise JsRuntimeError("uncaught: %s" % to_string(thrown.value))
        return result

    def call_function(self, function, args, this=UNDEFINED):
        if isinstance(function, NativeFunction):
            return function(list(args), this)
        if not isinstance(function, JsFunction):
            raise JsRuntimeError("%s is not a function" % to_string(function))
        scope = _Scope(function.scope)
        scope.declare("this", this)
        arguments = JsArray(list(args))
        scope.declare("arguments", arguments)
        for position, param in enumerate(function.params):
            scope.declare(
                param, args[position] if position < len(args) else UNDEFINED
            )
        self._hoist(function.body, scope)
        try:
            for statement in function.body:
                self.exec_statement(statement, scope)
        except _Return as ret:
            return ret.value
        return UNDEFINED

    # -- builtins ------------------------------------------------------------------

    def _install_builtins(self):
        scope = self.global_scope

        def native(name, fn):
            scope.declare(name, NativeFunction(name, fn))

        console = JsObject()
        for level in ("log", "info", "warn", "error", "debug"):
            console.set(level, NativeFunction(
                "console." + level,
                (lambda lvl: lambda args, this: self._console(lvl, args))(level),
            ))
        scope.declare("console", console)

        def js_json_stringify(args, this):
            value = args[0] if args else UNDEFINED
            result = json_stringify(value)
            if self._taint:
                result = taint_wrap(result, _collect_taint_labels(value))
            return result

        json_object = JsObject()
        json_object.set("stringify", NativeFunction(
            "JSON.stringify", js_json_stringify))
        json_object.set("parse", NativeFunction(
            "JSON.parse", lambda args, this: json_parse(
                to_string(args[0]) if args else "null")
        ))
        scope.declare("JSON", json_object)

        math = JsObject({
            "floor": NativeFunction("floor", lambda a, t: float(
                __import__("math").floor(to_number(a[0])))),
            "ceil": NativeFunction("ceil", lambda a, t: float(
                __import__("math").ceil(to_number(a[0])))),
            "round": NativeFunction("round", lambda a, t: float(
                int(to_number(a[0]) + 0.5))),
            "abs": NativeFunction("abs", lambda a, t: abs(to_number(a[0]))),
            "max": NativeFunction("max", lambda a, t: max(
                to_number(x) for x in a)),
            "min": NativeFunction("min", lambda a, t: min(
                to_number(x) for x in a)),
            "pow": NativeFunction("pow", lambda a, t: to_number(a[0])
                                  ** to_number(a[1])),
        })
        scope.declare("Math", math)

        native("parseInt", lambda a, t: _js_parse_int(a))
        native("parseFloat", lambda a, t: to_number(a[0]) if a else UNDEFINED)
        native("String", lambda a, t: to_string(a[0]) if a else "")
        native("Number", lambda a, t: to_number(a[0]) if a else 0.0)
        native("Boolean", lambda a, t: truthy(a[0]) if a else False)
        native("isNaN", lambda a, t: to_number(a[0]) != to_number(a[0]))
        def js_encode_uri_component(a, t):
            value = to_string(a[0]) if a else ""
            result = _encode_uri_component(value)
            if self._taint:
                result = taint_wrap(result, taint_labels(value))
            return result

        native("encodeURIComponent", js_encode_uri_component)
        native("Array", lambda a, t: JsArray(list(a)))

    def _console(self, level, args):
        message = " ".join(to_string(a) for a in args)
        self.console_log.append((level, message))
        return UNDEFINED

    # -- statements -------------------------------------------------------------

    def _hoist(self, body, scope):
        for statement in body:
            if statement[0] == "funcdecl":
                _, name, params, fn_body = statement
                scope.declare(name, JsFunction(name, params, fn_body, scope))

    def exec_statement(self, statement, scope):
        self._step()
        kind = statement[0]
        if kind == "expr":
            return self.eval(statement[1], scope)
        if kind == "var":
            for name, init in statement[1]:
                value = UNDEFINED if init is None else self.eval(init, scope)
                scope.declare(name, value)
            return _NO_VALUE
        if kind == "funcdecl":
            _, name, params, body = statement
            scope.declare(name, JsFunction(name, params, body, scope))
            return _NO_VALUE
        if kind == "return":
            value = UNDEFINED
            if statement[1] is not None:
                value = self.eval(statement[1], scope)
            raise _Return(value)
        if kind == "if":
            _, condition, then_branch, else_branch = statement
            if truthy(self.eval(condition, scope)):
                self.exec_statement(then_branch, scope)
            elif else_branch is not None:
                self.exec_statement(else_branch, scope)
            return _NO_VALUE
        if kind == "block":
            for inner in statement[1]:
                self.exec_statement(inner, scope)
            return _NO_VALUE
        if kind == "while":
            _, condition, body = statement
            while truthy(self.eval(condition, scope)):
                self._step()
                try:
                    self.exec_statement(body, scope)
                except _Break:
                    break
                except _Continue:
                    continue
            return _NO_VALUE
        if kind == "for":
            _, init, condition, update, body = statement
            if init is not None:
                self.exec_statement(init, scope)
            while condition is None or truthy(self.eval(condition, scope)):
                self._step()
                try:
                    self.exec_statement(body, scope)
                except _Break:
                    break
                except _Continue:
                    pass
                if update is not None:
                    self.eval(update, scope)
            return _NO_VALUE
        if kind == "forin":
            _, name, target, body = statement
            obj = self.eval(target, scope)
            keys = []
            if isinstance(obj, JsObject):
                keys = obj.keys()
            elif isinstance(obj, JsArray):
                keys = [_number_to_string(float(i))
                        for i in range(len(obj.elements))]
            for key in keys:
                scope.declare(name, key)
                try:
                    self.exec_statement(body, scope)
                except _Break:
                    break
                except _Continue:
                    continue
            return _NO_VALUE
        if kind == "break":
            raise _Break()
        if kind == "continue":
            raise _Continue()
        if kind == "throw":
            raise _Thrown(self.eval(statement[1], scope))
        if kind == "try":
            _, try_body, catch_name, catch_body, finally_body = statement
            try:
                for inner in try_body:
                    self.exec_statement(inner, scope)
            except _Thrown as thrown:
                if catch_body is None:
                    raise
                catch_scope = _Scope(scope)
                if catch_name:
                    catch_scope.declare(catch_name, thrown.value)
                for inner in catch_body:
                    self.exec_statement(inner, catch_scope)
            finally:
                if finally_body:
                    for inner in finally_body:
                        self.exec_statement(inner, scope)
            return _NO_VALUE
        if kind == "empty":
            return _NO_VALUE
        raise JsRuntimeError("unknown statement kind %r" % kind)

    # -- expressions ------------------------------------------------------------

    def eval(self, node, scope):
        self._step()
        kind = node[0]
        if kind == "lit":
            value = node[1]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return float(value)
            return value
        if kind == "name":
            return scope.lookup(node[1])
        if kind == "this":
            try:
                return scope.lookup("this")
            except JsRuntimeError:
                return UNDEFINED
        if kind == "array":
            return JsArray([self.eval(e, scope) for e in node[1]])
        if kind == "object":
            obj = JsObject()
            for key, value_node in node[1]:
                obj.set(key, self.eval(value_node, scope))
            return obj
        if kind == "funcexpr":
            _, name, params, body = node
            return JsFunction(name, params, body, scope)
        if kind == "member":
            target = self.eval(node[1], scope)
            return self.get_member(target, node[2])
        if kind == "index":
            target = self.eval(node[1], scope)
            index = self.eval(node[2], scope)
            return self.get_index(target, index)
        if kind == "call":
            return self._eval_call(node, scope)
        if kind == "new":
            callee = self.eval(node[1], scope)
            args = [self.eval(a, scope) for a in node[2]]
            if isinstance(callee, (JsFunction, NativeFunction)):
                this = JsObject()
                result = self.call_function(callee, args, this)
                return result if result is not UNDEFINED else this
            raise JsRuntimeError("not a constructor")
        if kind == "assign":
            return self._eval_assign(node, scope)
        if kind == "ternary":
            _, condition, if_true, if_false = node
            branch = if_true if truthy(self.eval(condition, scope)) else if_false
            return self.eval(branch, scope)
        if kind == "binary":
            return self._eval_binary(node, scope)
        if kind == "unary":
            _, operator, operand = node
            value = self.eval(operand, scope)
            if operator == "!":
                return not truthy(value)
            if operator == "-":
                return -to_number(value)
            if operator == "+":
                return to_number(value)
            if operator == "~":
                return float(~_to_int32(value))
        if kind == "typeof":
            try:
                value = self.eval(node[1], scope)
            except JsRuntimeError:
                return "undefined"
            return _typeof(value)
        if kind == "void":
            self.eval(node[1], scope)
            return UNDEFINED
        if kind in ("preincr", "postincr"):
            return self._eval_incr(node, scope)
        if kind == "comma":
            self.eval(node[1], scope)
            return self.eval(node[2], scope)
        raise JsRuntimeError("unknown expression kind %r" % kind)

    def _eval_call(self, node, scope):
        _, callee_node, arg_nodes = node
        args = None
        if callee_node[0] == "member":
            this = self.eval(callee_node[1], scope)
            function = self.get_member(this, callee_node[2])
            args = [self.eval(a, scope) for a in arg_nodes]
            return self.call_function(function, args, this)
        if callee_node[0] == "index":
            this = self.eval(callee_node[1], scope)
            index = self.eval(callee_node[2], scope)
            function = self.get_index(this, index)
            args = [self.eval(a, scope) for a in arg_nodes]
            return self.call_function(function, args, this)
        function = self.eval(callee_node, scope)
        args = [self.eval(a, scope) for a in arg_nodes]
        return self.call_function(function, args)

    def _eval_assign(self, node, scope):
        _, operator, target, value_node = node
        value = self.eval(value_node, scope)
        if operator != "=":
            current = self.eval(target, scope)
            value = self._binary_op(operator[:-1], current, value)
        self._store(target, value, scope)
        return value

    def _store(self, target, value, scope):
        kind = target[0]
        if kind == "name":
            scope.assign(target[1], value)
            return
        if kind == "member":
            obj = self.eval(target[1], scope)
            self.set_member(obj, target[2], value)
            return
        if kind == "index":
            obj = self.eval(target[1], scope)
            index = self.eval(target[2], scope)
            self.set_index(obj, index, value)
            return
        raise JsRuntimeError("invalid assignment target")

    def _eval_incr(self, node, scope):
        kind, operator, target = node
        current = to_number(self.eval(target, scope))
        updated = current + (1.0 if operator == "++" else -1.0)
        self._store(target, updated, scope)
        return updated if kind == "preincr" else current

    def _eval_binary(self, node, scope):
        _, operator, left_node, right_node = node
        if operator == "&&":
            left = self.eval(left_node, scope)
            return self.eval(right_node, scope) if truthy(left) else left
        if operator == "||":
            left = self.eval(left_node, scope)
            return left if truthy(left) else self.eval(right_node, scope)
        left = self.eval(left_node, scope)
        right = self.eval(right_node, scope)
        return self._binary_op(operator, left, right)

    def _binary_op(self, operator, left, right):
        if operator == "+":
            if isinstance(left, str) or isinstance(right, str):
                result = to_string(left) + to_string(right)
            else:
                result = to_number(left) + to_number(right)
            if self._taint:
                # Hot path: plain getattr keeps the untainted-operands
                # case (the overwhelming majority) free of calls.
                labels = (getattr(left, "taint_labels", None),
                          getattr(right, "taint_labels", None))
                if labels[0] or labels[1]:
                    result = taint_wrap(
                        result, (labels[0] or frozenset())
                        | (labels[1] or frozenset()))
            return result
        if operator == "-":
            return to_number(left) - to_number(right)
        if operator == "*":
            return to_number(left) * to_number(right)
        if operator == "/":
            right_number = to_number(right)
            if right_number == 0:
                return float("inf") if to_number(left) > 0 else (
                    float("-inf") if to_number(left) < 0 else float("nan")
                )
            return to_number(left) / right_number
        if operator == "%":
            right_number = to_number(right)
            if right_number == 0:
                return float("nan")
            return float(
                __import__("math").fmod(to_number(left), right_number)
            )
        if operator in ("==", "==="):
            return self._equals(left, right)
        if operator in ("!=", "!=="):
            return not self._equals(left, right)
        if operator in ("<", ">", "<=", ">="):
            if isinstance(left, str) and isinstance(right, str):
                pair = (left, right)
            else:
                pair = (to_number(left), to_number(right))
            if operator == "<":
                return pair[0] < pair[1]
            if operator == ">":
                return pair[0] > pair[1]
            if operator == "<=":
                return pair[0] <= pair[1]
            return pair[0] >= pair[1]
        if operator == "&":
            return float(_to_int32(left) & _to_int32(right))
        if operator == "|":
            return float(_to_int32(left) | _to_int32(right))
        if operator == "^":
            return float(_to_int32(left) ^ _to_int32(right))
        if operator == "<<":
            return float(_to_int32(_to_int32(left) << (_to_int32(right) & 31)))
        if operator == ">>":
            return float(_to_int32(left) >> (_to_int32(right) & 31))
        if operator == ">>>":
            return float((_to_int32(left) & 0xFFFFFFFF) >> (
                _to_int32(right) & 31))
        if operator == "in":
            if isinstance(right, JsObject):
                return to_string(left) in right.properties
            return False
        if operator == "instanceof":
            return False
        raise JsRuntimeError("unsupported operator %r" % operator)

    @staticmethod
    def _equals(left, right):
        if isinstance(left, bool) or isinstance(right, bool):
            return left is right
        if left is UNDEFINED and right is None:
            return False
        if left is None and right is UNDEFINED:
            return False
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        return left is right or left == right

    # -- member access ------------------------------------------------------------

    def get_member(self, target, name):
        if isinstance(target, HostObject):
            return target.js_get(name)
        if isinstance(target, JsObject):
            return target.get(name)
        if isinstance(target, JsArray):
            return _array_member(target, name)
        if isinstance(target, str):
            return _string_member(target, name)
        if isinstance(target, (int, float)) and not isinstance(target, bool):
            return _number_member(float(target), name)
        if target is UNDEFINED or target is None:
            raise JsRuntimeError(
                "cannot read property %r of %s" % (name, to_string(target))
            )
        return UNDEFINED

    def set_member(self, target, name, value):
        if isinstance(target, HostObject):
            target.js_set(name, value)
            return
        if isinstance(target, JsObject):
            target.set(name, value)
            return
        if isinstance(target, JsArray) and name == "length":
            length = int(to_number(value))
            del target.elements[length:]
            return
        raise JsRuntimeError("cannot set property %r" % name)

    def get_index(self, target, index):
        if isinstance(target, JsArray):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                position = int(index)
                if 0 <= position < len(target.elements):
                    return target.elements[position]
                return UNDEFINED
            return _array_member(target, to_string(index))
        if isinstance(target, str):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                position = int(index)
                if 0 <= position < len(target):
                    return target[position]
                return UNDEFINED
            return _string_member(target, to_string(index))
        if isinstance(target, (JsObject, HostObject)):
            if isinstance(index, (int, float)) and not isinstance(index, bool):
                member = self.get_member(target, _number_to_string(float(index)))
            else:
                member = self.get_member(target, to_string(index))
            return member
        raise JsRuntimeError("cannot index %s" % to_string(target))

    def set_index(self, target, index, value):
        if isinstance(target, JsArray):
            position = int(to_number(index))
            while len(target.elements) <= position:
                target.elements.append(UNDEFINED)
            target.elements[position] = value
            return
        if isinstance(target, JsObject):
            target.set(to_string(index), value)
            return
        if isinstance(target, HostObject):
            target.js_set(to_string(index), value)
            return
        raise JsRuntimeError("cannot index-assign %s" % to_string(target))

    def _step(self):
        self.steps += 1
        if self.steps > self.MAX_STEPS:
            raise JsRuntimeError("script exceeded execution budget")


_NO_VALUE = object()


def _typeof(value):
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (JsFunction, NativeFunction)):
        return "function"
    return "object"


def _js_parse_int(args):
    if not args:
        return float("nan")
    text = to_string(args[0]).strip()
    base = int(to_number(args[1])) if len(args) > 1 and truthy(args[1]) else 10
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"[:base]
    for char in text.lower():
        if char in alphabet:
            digits += char
        else:
            break
    if not digits:
        return float("nan")
    return float(sign * int(digits, base))


def _encode_uri_component(text):
    safe = ("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
            "-_.!~*'()")
    out = []
    for char in text:
        if char in safe:
            out.append(char)
        else:
            out.extend("%%%02X" % b for b in char.encode("utf-8"))
    return "".join(out)


def _array_member(array, name):
    if name == "length":
        return float(len(array.elements))
    if name == "push":
        return NativeFunction("push", lambda args, this: (
            array.elements.extend(args), float(len(array.elements))
        )[1])
    if name == "pop":
        return NativeFunction("pop", lambda args, this: (
            array.elements.pop() if array.elements else UNDEFINED))
    if name == "join":
        return NativeFunction("join", lambda args, this: (
            (to_string(args[0]) if args else ",").join(
                to_string(e) for e in array.elements)))
    if name == "indexOf":
        def index_of(args, this):
            needle = args[0] if args else UNDEFINED
            for position, element in enumerate(array.elements):
                if JsInterpreter._equals(element, needle):
                    return float(position)
            return -1.0
        return NativeFunction("indexOf", index_of)
    if name == "slice":
        def slice_fn(args, this):
            start = int(to_number(args[0])) if args else 0
            end = int(to_number(args[1])) if len(args) > 1 else None
            return JsArray(array.elements[start:end])
        return NativeFunction("slice", slice_fn)
    if name == "concat":
        def concat(args, this):
            merged = list(array.elements)
            for arg in args:
                if isinstance(arg, JsArray):
                    merged.extend(arg.elements)
                else:
                    merged.append(arg)
            return JsArray(merged)
        return NativeFunction("concat", concat)
    if name == "item":
        def item(args, this):
            position = int(to_number(args[0])) if args else 0
            if 0 <= position < len(array.elements):
                return array.elements[position]
            return None
        return NativeFunction("item", item)
    if name in ("map", "filter", "forEach", "some", "every"):
        return _array_iteration(array, name)
    if name == "reverse":
        def reverse(args, this):
            array.elements.reverse()
            return array
        return NativeFunction("reverse", reverse)
    if name == "sort":
        def sort(args, this):
            array.elements.sort(key=to_string)
            return array
        return NativeFunction("sort", sort)
    return UNDEFINED


def _array_iteration(array, name):
    """Higher-order array methods; the callback is a JsFunction or
    NativeFunction invoked through a private interpreter instance."""

    def runner(args, this):
        if not args:
            raise JsRuntimeError("%s requires a callback" % name)
        callback = args[0]
        engine = JsInterpreter()
        out = []
        for position, element in enumerate(list(array.elements)):
            result = engine.call_function(
                callback, [element, float(position), array]
            )
            if name == "map":
                out.append(result)
            elif name == "filter":
                if truthy(result):
                    out.append(element)
            elif name == "some":
                if truthy(result):
                    return True
            elif name == "every":
                if not truthy(result):
                    return False
        if name == "map" or name == "filter":
            return JsArray(out)
        if name == "some":
            return False
        if name == "every":
            return True
        return UNDEFINED

    return NativeFunction(name, runner)


def _string_member(text, name):
    if name == "length":
        return float(len(text))
    simple = {
        "toLowerCase": lambda args, this: text.lower(),
        "toUpperCase": lambda args, this: text.upper(),
        "trim": lambda args, this: text.strip(),
    }
    if name in simple:
        return NativeFunction(name, simple[name])
    if name == "charCodeAt":
        def char_code_at(args, this):
            position = int(to_number(args[0])) if args else 0
            if 0 <= position < len(text):
                return float(ord(text[position]))
            return float("nan")
        return NativeFunction("charCodeAt", char_code_at)
    if name == "charAt":
        def char_at(args, this):
            position = int(to_number(args[0])) if args else 0
            return text[position] if 0 <= position < len(text) else ""
        return NativeFunction("charAt", char_at)
    if name == "indexOf":
        return NativeFunction("indexOf", lambda args, this: float(
            text.find(to_string(args[0]) if args else "undefined")))
    if name == "substring":
        def substring(args, this):
            start = max(0, int(to_number(args[0]))) if args else 0
            end = (max(0, int(to_number(args[1])))
                   if len(args) > 1 else len(text))
            if start > end:
                start, end = end, start
            return text[start:end]
        return NativeFunction("substring", substring)
    if name == "slice":
        def slice_fn(args, this):
            start = int(to_number(args[0])) if args else 0
            end = int(to_number(args[1])) if len(args) > 1 else None
            return text[start:end]
        return NativeFunction("slice", slice_fn)
    if name == "split":
        def split(args, this):
            if not args:
                return JsArray([text])
            separator = to_string(args[0])
            if separator == "":
                return JsArray(list(text))
            return JsArray(text.split(separator))
        return NativeFunction("split", split)
    if name == "replace":
        return NativeFunction("replace", lambda args, this: text.replace(
            to_string(args[0]), to_string(args[1]), 1))
    if name == "startsWith":
        return NativeFunction("startsWith", lambda args, this: (
            text.startswith(to_string(args[0]) if args else "undefined")))
    if name == "includes":
        return NativeFunction("includes", lambda args, this: (
            to_string(args[0]) in text if args else False))
    return UNDEFINED


def _number_member(number, name):
    if name == "toFixed":
        def to_fixed(args, this):
            digits = int(to_number(args[0])) if args else 0
            return "%.*f" % (digits, number)
        return NativeFunction("toFixed", to_fixed)
    if name == "toString":
        return NativeFunction(
            "toString", lambda args, this: _number_to_string(number)
        )
    return UNDEFINED


def run_script(source, globals_map=None):
    """Convenience: run a script with the given host globals.

    Returns the interpreter (for console output and globals inspection).
    """
    interpreter = JsInterpreter(globals_map)
    interpreter.run(source)
    return interpreter
