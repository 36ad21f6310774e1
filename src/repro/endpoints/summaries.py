"""Per-class string-propagation summaries for endpoint reconstruction.

The static endpoint census reconstructs the URLs an app can contact from
its bytecode alone: plain ``const-string`` literals, ``StringBuilder``
append chains, ``String.format``/``String.concat`` composition, static
field constants, and strings that flow through method returns across the
call graph. Everything derivable from *one class in isolation* lives in
a :class:`ClassStringSummary`:

- ``constants``: ``{(class, field): text}`` for every single-literal
  ``sput`` (the ``BASE``-style endpoint constants SDKs set in
  ``<clinit>``),
- per-method **return templates** (what the method returns, as a
  symbolic string template), and
- per-method **URL templates** (string productions that look like
  endpoints: scheme-prefixed literals and symbolic compositions whose
  head may resolve to one).

A *template* is a tuple of parts::

    ("lit", text)                     a known literal fragment
    ("field", class, field)           a static field read
    ("ret", class, method, desc)      the return value of a call
    ("?",)                            anything unknown

Templates are resolved per app (:mod:`repro.endpoints.census`), where
the call graph and every class's constants are in scope; summaries stay
pure functions of a class's canonical bytes and are therefore memoizable
corpus-wide under the class digest — the same content-addressing the
decompile/parse facts tier uses, stored as a second fact kind
(``ENDPOINT_SUMMARY_KIND``) in the shared :class:`ClassFactsCache`.

Determinism contract: :func:`summary_for_class` reads the ambient clock
exactly twice per class, hit or miss, mirroring
:func:`repro.static_analysis.classfacts.facts_for_class` — span
durations under a tick clock are identical whatever the cache state.
"""

from repro.dex.binary import serialize_class
from repro.dex.constants import Opcode
from repro.util import sha256_hex

#: URL schemes the census recognizes as endpoints.
URL_SCHEMES = ("http://", "https://", "ws://", "wss://")

_UNKNOWN = ("?",)
_STRING = "java.lang.String"
_STRING_BUILDER = "java.lang.StringBuilder"
_FORMAT_PLACEHOLDERS = ("%s", "%d")


class ClassStringSummary:
    """Everything the endpoint census derives from one class's bytes.

    ``methods`` is a tuple of ``(name, descriptor, invoked_keys,
    ret_template, url_templates)`` rows; ``invoked_keys`` matches
    :func:`repro.callgraph.class_method_summary` output so call graphs
    build straight from cached summaries without touching bytecode.
    Instances are picklable: they cross the process-pool boundary in
    worker ship-backs and land in the on-disk cache layer.
    """

    __slots__ = ("digest", "class_name", "constants", "methods",
                 "canonical_size", "cost")

    def __init__(self, digest, class_name, constants, methods,
                 canonical_size, cost=0.0):
        self.digest = digest
        self.class_name = class_name
        self.constants = constants
        self.methods = methods
        self.canonical_size = canonical_size
        self.cost = cost

    @property
    def method_summary(self):
        """Invoke triples in :func:`class_method_summary` shape."""
        return tuple((name, descriptor, invoked)
                     for name, descriptor, invoked, _, _ in self.methods)

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self):
        return "ClassStringSummary(%s, %s, %d methods)" % (
            self.digest[:12], self.class_name, len(self.methods)
        )


def _coalesce(parts):
    """Merge adjacent literals; truncate after the first unknown part.

    Resolution stops at the first unresolvable part anyway, so anything
    past an explicit unknown is dead weight in the cached summary.
    """
    out = []
    for part in parts:
        if part[0] == "?":
            out.append(_UNKNOWN)
            break
        if part[0] == "lit" and out and out[-1][0] == "lit":
            out[-1] = ("lit", out[-1][1] + part[1])
        else:
            out.append(part)
    return tuple(out)


def _looks_like_endpoint(template):
    """Collect templates that may resolve to a URL.

    A literal head must already carry a scheme; a symbolic head (field
    read or call return) is kept and filtered at resolution time.
    """
    if not template:
        return False
    head = template[0]
    if head[0] == "lit":
        return head[1].startswith(URL_SCHEMES)
    return head[0] in ("field", "ret")


def _format_template(args):
    """``String.format(fmt, args...)`` with a constant format string.

    Splits the format on ``%s``/``%d`` and interleaves the argument
    templates; a non-constant format yields an unknown template.
    """
    if not args:
        return (_UNKNOWN,)
    fmt = args[0]
    if len(fmt) != 1 or fmt[0][0] != "lit":
        return (_UNKNOWN,)
    text = fmt[0][1]
    values = list(args[1:])
    parts = []
    cursor = 0
    while cursor < len(text):
        hole = -1
        for placeholder in _FORMAT_PLACEHOLDERS:
            found = text.find(placeholder, cursor)
            if found != -1 and (hole == -1 or found < hole):
                hole = found
        if hole == -1:
            parts.append(("lit", text[cursor:]))
            break
        if hole > cursor:
            parts.append(("lit", text[cursor:hole]))
        parts.extend(values.pop(0) if values else (_UNKNOWN,))
        cursor = hole + 2
    return _coalesce(parts)


class _MethodWalker:
    """Linear abstract interpretation of one method's string flow.

    The simplified DEX is register-free, so values live on an implicit
    operand stack: constants and field reads push, invokes pop their
    parameters (plus a receiver for ``String.concat``), ``move-result``
    pushes the last invoke's result template. A single live
    ``StringBuilder`` slot models the append chains the corpus emits.
    """

    def __init__(self, constants, candidates):
        self.constants = constants
        self.candidates = candidates
        self.stack = []  # [template, cancellable candidate index or None]
        self.builder = None
        self.pending = None
        self.ret = None

    def _push(self, template, candidate_index=None):
        self.stack.append([template, candidate_index])

    def _pop_entry(self):
        return self.stack.pop() if self.stack else [(_UNKNOWN,), None]

    def _pop(self):
        return self._pop_entry()[0]

    def _collect(self, template):
        if _looks_like_endpoint(template):
            self.candidates.append(template)
            return len(self.candidates) - 1
        return None

    def _cancel(self, entries):
        """Uncollect literals consumed as string-composition inputs.

        A scheme-prefixed literal fed into ``append``/``format``/
        ``concat`` is an ingredient of the composed endpoint collected
        at the production site, not a standalone endpoint itself.
        """
        for entry in entries:
            if entry[1] is not None:
                self.candidates[entry[1]] = None

    def step(self, instruction):
        op = instruction.opcode
        if op is Opcode.CONST_STRING:
            template = (("lit", instruction.operand),)
            self._push(template, self._collect(template))
        elif op is Opcode.CONST_INT:
            self._push((("lit", str(instruction.operand)),))
        elif op is Opcode.NEW_INSTANCE:
            if instruction.operand == _STRING_BUILDER:
                self.builder = []
        elif op is Opcode.SGET:
            cls, field = instruction.operand
            self._push((("field", cls, field),))
        elif op is Opcode.SPUT:
            cls, field = instruction.operand
            if self.stack:
                template, candidate_index = self.stack.pop()
                if len(template) == 1 and template[0][0] == "lit":
                    self.constants[(cls, field)] = template[0][1]
                if candidate_index is not None:
                    # Assigned to a field: a constant, not a direct use.
                    self.candidates[candidate_index] = None
        elif op is Opcode.IGET:
            self._push((_UNKNOWN,))
        elif op is Opcode.IPUT:
            if self.stack:
                self.stack.pop()
        elif op is Opcode.MOVE_RESULT:
            self._push(self.pending if self.pending is not None
                       else (_UNKNOWN,))
            self.pending = None
        elif op is Opcode.RETURN:
            if self.ret is None:
                self.ret = self._pop()
        elif op.is_invoke:
            self._invoke(instruction.operand)

    def _invoke(self, ref):
        entries = [self._pop_entry() for _ in ref.parameter_types]
        entries.reverse()
        args = [entry[0] for entry in entries]
        if ref.class_name == _STRING_BUILDER:
            if ref.method_name == "append":
                self._cancel(entries)
            self.pending = self._string_builder(ref, args)
        elif ref.class_name == _STRING and ref.method_name == "format":
            self._cancel(entries)
            template = _format_template(args)
            self._collect(template)
            self.pending = template
        elif ref.class_name == _STRING and ref.method_name == "concat":
            receiver = self._pop_entry()
            self._cancel(entries + [receiver])
            template = _coalesce(receiver[0] + (args[0] if args
                                                else (_UNKNOWN,)))
            self._collect(template)
            self.pending = template
        elif ref.return_type == _STRING:
            self.pending = (("ret",) + ref.key(),)
        elif ref.return_type == "void":
            self.pending = None
        else:
            self.pending = (_UNKNOWN,)

    def _string_builder(self, ref, args):
        if ref.method_name == "append":
            if self.builder is not None:
                self.builder.extend(args[0] if args else (_UNKNOWN,))
            return None  # fluent receiver; chains re-invoke directly
        if ref.method_name == "toString":
            template = (_coalesce(self.builder)
                        if self.builder is not None else (_UNKNOWN,))
            self._collect(template)
            return template
        return None  # <init> and friends


def _walk_method(method, constants):
    """One method's (ret_template, url_templates) plus field constants."""
    candidates = []
    walker = _MethodWalker(constants, candidates)
    for instruction in method.instructions:
        walker.step(instruction)
    ret_template = (walker.ret if method.return_type == _STRING
                    and walker.ret is not None else None)
    urls = tuple(t for t in candidates if t is not None)
    return ret_template, urls


def compute_class_summary(dex_class, digest=None, canonical=None):
    """Compute one class's string summary from scratch."""
    if canonical is None:
        canonical = serialize_class(dex_class)
    if digest is None:
        digest = sha256_hex(canonical)
    constants = {}
    methods = []
    for method in dex_class.methods:
        ret_template, urls = _walk_method(method, constants)
        invoked = tuple(ref.key() for ref in method.invoked_refs())
        methods.append((method.name, method.descriptor, invoked,
                        ret_template, urls))
    return ClassStringSummary(
        digest=digest,
        class_name=dex_class.name,
        constants=constants,
        methods=tuple(methods),
        canonical_size=len(canonical),
    )


def summary_for_class(dex_class, cache=None, recorder=None, clock=None):
    """One class's summary, served from ``cache`` when possible.

    Always digests the class (the lookup key must be recomputed per
    APK); the abstract interpretation is skipped on a hit. The ambient
    clock is read exactly twice whether or not the cache hits — see the
    module docstring for why.
    """
    start = clock() if clock is not None else 0.0
    canonical = serialize_class(dex_class)
    digest = sha256_hex(canonical)
    summary = cache.get(digest) if cache is not None else None
    computed = summary is None
    if computed:
        summary = compute_class_summary(dex_class, digest=digest,
                                        canonical=canonical)
    end = clock() if clock is not None else 0.0
    if computed:
        # Rounded to the nanosecond: the same duration read at two
        # clock offsets differs in its last bits across workers.
        summary.cost = round(end - start, 9)
        if cache is not None:
            cache.put(digest, summary)
        if recorder is not None:
            recorder.new[digest] = summary
    if recorder is not None:
        recorder.digests.append(digest)
    return summary
