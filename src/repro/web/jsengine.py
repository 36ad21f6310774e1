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

A parsed program is compiled once into nested closures, one per AST
node (see the compiler section), and compiling is memoized corpus-wide:
the same ~dozen injected scripts are evaluated against every one of the
100 crawled sites, so the process-wide :func:`default_script_cache`
keys the compiled program on the script's SHA-256 and hands it back to
each execution. Compiled code holds no run state (the interpreter and
the scope are its arguments), so interpreter state stays strictly
per-execution. The cache is a :class:`~repro.exec.ClassFactsCache` of
kind ``"js"``, so it shares the class-facts cache's LRU bound, disk
layer and corrupt-file rule; on disk a compiled program is stored as
its AST and compiled again when loaded. ``REPRO_CACHE=0`` disables it.
"""

import contextlib
import contextvars
import hashlib
import math
import operator

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
        # Where a jump is legal: inside a function (``return``) and
        # inside a loop of the current function (``break``/``continue``).
        self.in_function = False
        self.loop_depth = 0

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
            if not self.in_function:
                self.error("return outside a function")
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
            return ("while", condition, self.parse_loop_body())
        if self.at("break") or self.at("continue"):
            if not self.loop_depth:
                self.error("%s outside a loop" % self.cur.value)
            jump = self.advance().value
            self.accept(";")
            return (jump,)
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
        return ("funcdecl", name, params, self.parse_function_body())

    def parse_function_body(self):
        """A function's block, where ``return`` is legal and no loop
        of the enclosing code is open."""
        saved = self.in_function, self.loop_depth
        self.in_function, self.loop_depth = True, 0
        try:
            return self.parse_block()
        finally:
            self.in_function, self.loop_depth = saved

    def parse_loop_body(self):
        self.loop_depth += 1
        try:
            return self.parse_statement()
        finally:
            self.loop_depth -= 1

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
                    return ("forin", init[1][0][0], target,
                            self.parse_loop_body())
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
        return ("for", init, condition, update, self.parse_loop_body())

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
            return ("funcexpr", name, params, self.parse_function_body())
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
    """The process-wide compiled-script cache (created lazily).

    Keyed by :func:`script_cache_key`; values are
    :class:`CompiledProgram` instances, stored on disk as their AST.
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
    """Parse and compile for execution, through the cache when enabled.

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
    program = cached
    if type(program) is not CompiledProgram:
        # A miss, or a bare AST stored on disk by an engine that cached
        # parses only: compile it, and store the program in its place.
        program = CompiledProgram(parse_js(source) if cached is None
                                  else cached)
    elapsed = clock() - started
    if cache is not None and program is not cached:
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
    """A user-defined function (closure): ``code`` is its compiled body,
    as :func:`_compile_function` returns it, ``scope`` where it was made.
    """

    def __init__(self, name, params, code, scope):
        self.name = name or "(anonymous)"
        self.params = params
        self.code = code
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

def _lookup(scope, name):
    while scope is not None:
        if name in scope.vars:
            return scope.vars[name]
        scope = scope.parent
    raise JsRuntimeError("%s is not defined" % name)


class _Scope:
    __slots__ = ("vars", "parent")

    def __init__(self, parent=None):
        self.vars = {}
        self.parent = parent

    lookup = _lookup

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


_INF = float("inf")
_NAN = float("nan")


def _number_to_string(value):
    if not math.isfinite(value):
        return "NaN" if value != value else (
            "Infinity" if value > 0 else "-Infinity")
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
        return _number_to_string(value) if math.isfinite(value) else "null"
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


class JsInterpreter:
    """Executes compiled JS against a set of host globals."""

    MAX_STEPS = 2_000_000

    def __init__(self, globals_map=None):
        self.global_scope = _Scope()
        self.global_scope.declare("this", UNDEFINED)
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
        """Compile (or fetch from the script cache) and execute; returns
        the value of the last top-level expression statement (or
        UNDEFINED)."""
        program = _parse_for_run(source)
        result = UNDEFINED
        try:
            for node, code in zip(program[1], program.code):
                value = code(self, self.global_scope)
                if node[0] == "expr":
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
        hoisted, body = function.code
        for name, params, code in hoisted:
            scope.declare(name, JsFunction(name, params, code, scope))
        try:
            for statement in body:
                statement(self, scope)
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

        scope.declare("Math", JsObject({
            "floor": NativeFunction("floor", _integral(math.floor)),
            "ceil": NativeFunction("ceil", _integral(math.ceil)),
            "round": NativeFunction("round", _integral(
                lambda value: math.floor(value + 0.5))),
            "abs": NativeFunction("abs", lambda a, t: abs(_number_arg(a, 0))),
            "max": NativeFunction("max", _extreme(max, -_INF)),
            "min": NativeFunction("min", _extreme(min, _INF)),
            "pow": NativeFunction("pow", _power),
        }))

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

    # -- member access ------------------------------------------------------------

    def get_member(self, target, name):
        if isinstance(target, HostObject):
            return target.js_get(name)
        if isinstance(target, JsObject):
            return target.get(name)
        if isinstance(target, JsArray):
            return _array_member(target, name, self)
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
            return _array_member(target, to_string(index), self)
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


# ---------------------------------------------------------------------------
# Compiler: one closure per AST node
# ---------------------------------------------------------------------------
#
# Compiling a node settles what does not depend on run-time values (its
# operator, the shape of a call or an assignment target) and returns a
# closure ``code(interp, scope)`` capturing only that: child closures,
# names, literals, operator functions. The interpreter and the scope are
# arguments, so one compiled program serves every interpreter in the
# process. Every statement and expression takes one step on entry and
# every loop iteration one more (a for-in key none). Operators test
# ``type(x) is float`` before coercing: most operands are plain floats,
# and a TaintedNum (a float subclass) must take the coercing path.

_OVER_BUDGET = "script exceeded execution budget"


def _add(interp, left, right):
    if type(left) is float and type(right) is float:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        result = to_string(left) + to_string(right)
    else:
        result = to_number(left) + to_number(right)
    if interp._taint:
        # Read per run: one compiled program serves either mode. Plain
        # getattr keeps untainted operands (the vast majority) call-free.
        labels = (getattr(left, "taint_labels", None),
                  getattr(right, "taint_labels", None))
        if labels[0] or labels[1]:
            result = taint_wrap(
                result, (labels[0] or frozenset())
                | (labels[1] or frozenset()))
    return result


def _numeric(op):
    """An arithmetic operator: ``op`` on both operands as numbers."""
    def numeric(interp, left, right):
        if type(left) is float and type(right) is float:
            return op(left, right)
        return op(to_number(left), to_number(right))
    return numeric


def _divide(left, right):
    if right == 0:
        return _INF if left > 0 else (-_INF if left < 0 else _NAN)
    return left / right


def _modulo(left, right):
    if right == 0 or math.isinf(left):
        return _NAN
    return math.fmod(left, right)


def _relational(op):
    """``<``-style operators: two strings compare as strings, anything
    else as numbers."""
    def relational(interp, left, right):
        if (type(left) is float and type(right) is float
                or isinstance(left, str) and isinstance(right, str)):
            return op(left, right)
        return op(to_number(left), to_number(right))
    return relational


def _equal(interp, left, right):
    if type(left) is float and type(right) is float:
        return left == right
    return _equals(left, right)


def _int32(op, mask=-1):
    """A bitwise operator: ``op`` on both operands' ToInt32, the right
    one masked (to a shift count) by ``mask``."""
    def int32(interp, left, right):
        if (type(left) is float and type(right) is float
                and -2147483649.0 < left < 2147483648.0
                and -2147483649.0 < right < 2147483648.0):
            return float(op(int(left), int(right) & mask))
        return float(op(_to_int32(left), _to_int32(right) & mask))
    return int32


_BINARY = {
    "+": _add,
    "-": _numeric(operator.sub),
    "*": _numeric(operator.mul),
    "/": _numeric(_divide),
    "%": _numeric(_modulo),
    "==": _equal,
    "===": _equal,
    "!=": lambda interp, left, right: not _equal(interp, left, right),
    "!==": lambda interp, left, right: not _equal(interp, left, right),
    "<": _relational(operator.lt),
    ">": _relational(operator.gt),
    "<=": _relational(operator.le),
    ">=": _relational(operator.ge),
    "&": _int32(operator.and_),
    "|": _int32(operator.or_),
    "^": _int32(operator.xor),
    "<<": _int32(lambda value, shift: _to_int32(value << shift), 31),
    ">>": _int32(operator.rshift, 31),
    ">>>": _int32(lambda value, shift: (value & 0xFFFFFFFF) >> shift, 31),
    "in": lambda interp, left, right: (
        isinstance(right, JsObject) and to_string(left) in right.properties),
    "instanceof": lambda interp, left, right: False,
}

_UNARY = {
    "!": lambda value: not truthy(value),
    "-": lambda value: -to_number(value),
    "+": to_number,
    "~": lambda value: float(~_to_int32(value)),
}


def _pair_code(apply, left_node, right_node):
    """Step, evaluate two operands left to right, ``apply`` to them."""
    left, right = _compile_expr(left_node), _compile_expr(right_node)

    def pair(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        return apply(interp, left(interp, scope), right(interp, scope))
    return pair


def _store_code(target):
    """``store(interp, scope, value)`` for an assignment target. A member
    or index target evaluates its operands here, after the value."""
    kind = target[0]
    if kind == "name":
        name = target[1]

        def store_name(interp, scope, value):
            scope.assign(name, value)
        return store_name
    if kind == "member":
        obj, name = _compile_expr(target[1]), target[2]

        def store_member(interp, scope, value):
            interp.set_member(obj(interp, scope), name, value)
        return store_member
    if kind == "index":
        obj, index = _compile_expr(target[1]), _compile_expr(target[2])

        def store_index(interp, scope, value):
            interp.set_index(obj(interp, scope), index(interp, scope), value)
        return store_index

    def store_invalid(interp, scope, value):
        raise JsRuntimeError("invalid assignment target")
    return store_invalid


def _assign_code(operator_text, target, value_node):
    value, store = _compile_expr(value_node), _store_code(target)
    apply = read = None
    if operator_text != "=":
        # Reading the target first evaluates its operands twice.
        apply, read = _BINARY[operator_text[:-1]], _compile_expr(target)

    def assign(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        result = value(interp, scope)
        if apply is not None:
            result = apply(interp, read(interp, scope), result)
        store(interp, scope, result)
        return result
    return assign


def _increment_code(kind, operator_text, target):
    read, store = _compile_expr(target), _store_code(target)
    delta = 1.0 if operator_text == "++" else -1.0
    postfix = kind == "postincr"

    def increment(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        current = to_number(read(interp, scope))
        updated = current + delta
        store(interp, scope, updated)
        return current if postfix else updated
    return increment


def _call_code(callee, arg_nodes):
    """A call. A member or index callee's object is the call's ``this``;
    the callee node itself takes no step."""
    args = tuple(_compile_expr(arg) for arg in arg_nodes)
    kind = callee[0]
    method = kind in ("member", "index")
    target = _compile_expr(callee[1] if method else callee)
    name = callee[2] if kind == "member" else None
    index = _compile_expr(callee[2]) if kind == "index" else None

    def call(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        this = target(interp, scope)
        if not method:
            this, function = UNDEFINED, this
        elif index is None:
            function = interp.get_member(this, name)
        else:
            function = interp.get_index(this, index(interp, scope))
        return interp.call_function(
            function, [arg(interp, scope) for arg in args], this)
    return call


def _compile_expr(node):
    kind = node[0]
    if kind == "binary" and node[1] in ("&&", "||"):
        left, right = _compile_expr(node[2]), _compile_expr(node[3])
        conjunction = node[1] == "&&"

        def logical(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            value = left(interp, scope)
            if truthy(value) is conjunction:
                return right(interp, scope)
            return value
        return logical
    if kind == "binary":
        return _pair_code(_BINARY[node[1]], node[2], node[3])
    if kind == "index":
        return _pair_code(JsInterpreter.get_index, node[1], node[2])
    if kind == "lit":
        value = node[1]

        def lit(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            return value
        return lit
    if kind in ("name", "this"):
        # The global scope declares ``this`` as undefined.
        name = node[1] if kind == "name" else "this"

        def name_code(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            variables = scope.vars
            if name in variables:
                return variables[name]
            return _lookup(scope.parent, name)
        return name_code
    if kind == "member":
        target, name = _compile_expr(node[1]), node[2]

        def member(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            return interp.get_member(target(interp, scope), name)
        return member
    if kind == "call":
        return _call_code(node[1], node[2])
    if kind == "assign":
        return _assign_code(node[1], node[2], node[3])
    if kind in ("preincr", "postincr"):
        return _increment_code(kind, node[1], node[2])
    if kind in ("unary", "typeof", "void"):
        apply = _UNARY[node[1]] if kind == "unary" else None
        operand = _compile_expr(node[-1])

        def unary(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            if apply is not None:
                return apply(operand(interp, scope))
            if kind == "void":
                operand(interp, scope)
                return UNDEFINED
            try:
                value = operand(interp, scope)
            except JsRuntimeError:
                return "undefined"
            return _typeof(value)
        return unary
    if kind == "ternary":
        test, if_true, if_false = (_compile_expr(part) for part in node[1:])

        def ternary(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            branch = if_true if truthy(test(interp, scope)) else if_false
            return branch(interp, scope)
        return ternary
    if kind == "array":
        elements = tuple(_compile_expr(element) for element in node[1])

        def array(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            return JsArray([element(interp, scope) for element in elements])
        return array
    if kind == "object":
        pairs = tuple((key, _compile_expr(value)) for key, value in node[1])

        def object_literal(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            obj = JsObject()
            for key, value in pairs:
                obj.properties[key] = value(interp, scope)
            return obj
        return object_literal
    if kind == "funcexpr":
        name, params, code = node[1], node[2], _compile_function(node[3])

        def function(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            return JsFunction(name, params, code, scope)
        return function
    if kind == "new":
        callee = _compile_expr(node[1])
        args = tuple(_compile_expr(arg) for arg in node[2])

        def new(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            function = callee(interp, scope)
            values = [arg(interp, scope) for arg in args]
            if isinstance(function, (JsFunction, NativeFunction)):
                this = JsObject()
                result = interp.call_function(function, values, this)
                return result if result is not UNDEFINED else this
            raise JsRuntimeError("not a constructor")
        return new
    if kind == "comma":
        return _pair_code(lambda interp, first, second: second,
                          node[1], node[2])
    raise JsRuntimeError("unknown expression kind %r" % kind)


def _declare_code(name, params, code):
    def declare(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        scope.vars[name] = JsFunction(name, params, code, scope)
    return declare


def _compile_function(body):
    """A function body as ``(hoisted, statements)``: ``hoisted`` holds
    ``(name, params, code)`` for each declaration at the body's top
    level, which a call declares before running the statements."""
    hoisted, statements = [], []
    for node in body:
        if node[0] == "funcdecl":
            hoisted.append((node[1], node[2], _compile_function(node[3])))
            statements.append(_declare_code(*hoisted[-1]))
        else:
            statements.append(_compile_statement(node))
    return tuple(hoisted), tuple(statements)


def _loop_code(init, test, update, body):
    """``for`` and ``while``: one step per iteration, before the body."""
    def loop(interp, scope):
        steps = interp.steps = interp.steps + 1
        if steps > interp.MAX_STEPS:
            raise JsRuntimeError(_OVER_BUDGET)
        if init is not None:
            init(interp, scope)
        while True:
            if test is not None:
                if not truthy(test(interp, scope)):
                    return
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            try:
                body(interp, scope)
            except _Break:
                return
            except _Continue:
                pass
            if update is not None:
                update(interp, scope)
    return loop


def _compile_statement(node):
    """A statement closure; only an ``expr`` statement returns a value."""
    kind = node[0]
    if kind == "expr":
        expr = _compile_expr(node[1])

        def expr_statement(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            return expr(interp, scope)
        return expr_statement
    if kind == "var":
        declarations = tuple(
            (name, None if init is None else _compile_expr(init))
            for name, init in node[1])

        def var(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            for name, init in declarations:
                scope.vars[name] = (UNDEFINED if init is None
                                    else init(interp, scope))
        return var
    if kind == "block":
        body = tuple(_compile_statement(inner) for inner in node[1])

        def block(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            for statement in body:
                statement(interp, scope)
        return block
    if kind == "if":
        test, then_branch = _compile_expr(node[1]), _compile_statement(node[2])
        else_branch = None if node[3] is None else _compile_statement(node[3])

        def if_statement(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            if truthy(test(interp, scope)):
                then_branch(interp, scope)
            elif else_branch is not None:
                else_branch(interp, scope)
        return if_statement
    if kind in ("for", "while"):
        if kind == "while":
            node = ("for", None, node[1], None, node[2])
        _, init, test, update, body = node
        return _loop_code(
            None if init is None else _compile_statement(init),
            None if test is None else _compile_expr(test),
            None if update is None else _compile_expr(update),
            _compile_statement(body))
    if kind == "return":
        value = None if node[1] is None else _compile_expr(node[1])

        def return_statement(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            raise _Return(UNDEFINED if value is None
                          else value(interp, scope))
        return return_statement
    if kind == "funcdecl":
        return _declare_code(node[1], node[2], _compile_function(node[3]))
    if kind == "forin":
        name, target = node[1], _compile_expr(node[2])
        body = _compile_statement(node[3])

        def for_in(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            obj = target(interp, scope)
            keys = []
            if isinstance(obj, JsObject):
                keys = obj.keys()
            elif isinstance(obj, JsArray):
                keys = [_number_to_string(float(i))
                        for i in range(len(obj.elements))]
            for key in keys:
                scope.vars[name] = key
                try:
                    body(interp, scope)
                except _Break:
                    return
                except _Continue:
                    pass
        return for_in
    if kind in ("break", "continue", "throw", "empty"):
        value = _compile_expr(node[1]) if kind == "throw" else None
        signal = {"break": _Break, "continue": _Continue}.get(kind)

        def jump(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            if value is not None:
                raise _Thrown(value(interp, scope))
            if signal is not None:
                raise signal()
        return jump
    if kind == "try":
        try_body, catch_body, finally_body = (
            None if part is None
            else tuple(_compile_statement(inner) for inner in part)
            for part in (node[1], node[3], node[4]))
        catch_name = node[2]

        def try_statement(interp, scope):
            steps = interp.steps = interp.steps + 1
            if steps > interp.MAX_STEPS:
                raise JsRuntimeError(_OVER_BUDGET)
            try:
                for statement in try_body:
                    statement(interp, scope)
            except _Thrown as thrown:
                if catch_body is None:
                    raise
                catch_scope = _Scope(scope)
                if catch_name:
                    catch_scope.declare(catch_name, thrown.value)
                for statement in catch_body:
                    statement(interp, catch_scope)
            finally:
                for statement in finally_body or ():
                    statement(interp, scope)
        return try_statement
    raise JsRuntimeError("unknown statement kind %r" % kind)


class CompiledProgram(tuple):
    """The tuple :func:`parse_js` returns, plus :attr:`code`: one closure
    per top-level statement. Closures do not pickle, so it pickles as the
    AST alone and unpickling compiles again."""

    def __new__(cls, program):
        self = super().__new__(cls, program)
        self.code = tuple(_compile_statement(node) for node in program[1])
        return self

    def __reduce__(self):
        return (CompiledProgram, (tuple(self),))


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


def _number_arg(args, position):
    """A ``Math`` argument as a number; a missing one is NaN, as in JS."""
    return to_number(args[position]) if position < len(args) else _NAN


def _integral(fn):
    """``Math.floor`` and kin: NaN and the infinities come back as is."""
    def integral(args, this):
        value = _number_arg(args, 0)
        return float(fn(value)) if math.isfinite(value) else value
    return integral


def _extreme(pick, empty):
    """``Math.max``/``min``: NaN if any argument is NaN."""
    def extreme(args, this):
        values = [to_number(arg) for arg in args]
        if any(value != value for value in values):
            return _NAN
        return pick(values) if values else empty
    return extreme


def _power(args, this):
    base, exponent = _number_arg(args, 0), _number_arg(args, 1)
    if exponent != exponent or math.isinf(exponent) and abs(base) == 1:
        return _NAN  # Python gives 1.0 for 1 ** NaN and (-1) ** Infinity
    try:
        result = base ** exponent
    except (OverflowError, ZeroDivisionError):  # overflow, or 0 ** -n
        return math.copysign(_INF, base) if exponent % 2 == 1 else _INF
    # Python makes a negative base to a fractional power complex.
    return _NAN if isinstance(result, complex) else result


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


def _array_member(array, name, interp):
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
                if _equals(element, needle):
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
        return _array_iteration(array, name, interp)
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


def _array_iteration(array, name, interp):
    """Higher-order array methods; the callback is a JsFunction or
    NativeFunction invoked on the calling interpreter, so its steps
    count against that interpreter's budget."""

    def runner(args, this):
        if not args:
            raise JsRuntimeError("%s requires a callback" % name)
        callback = args[0]
        out = []
        for position, element in enumerate(list(array.elements)):
            result = interp.call_function(
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
            if not math.isfinite(number):
                return _number_to_string(number)
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
