"""Custom WebView subclass detection over decompiled sources (3.1.2).

The paper decompiles each APK and parses every source file that imports
``android.webkit.WebView``, extracting classes that extend it. Calls to
those subclasses' inherited ``loadUrl``/... must count as WebView usage,
which bytecode alone cannot decide when the subclass hierarchy is only
visible in source — this is the pipeline step that makes decompilation
load-bearing.

The work splits along the class-cache seam: the screen + parse + import
resolution for one source file is a pure function of its text
(:func:`class_web_source_facts`, memoized corpus-wide as part of each
class's facts), while the transitive subclass closure depends on every
class in the app and stays per-APK
(:func:`webview_subclasses_from_entries`).
"""

from repro.android.api import WEBVIEW_CLASS
from repro.javasrc.parser import try_parse_java


def class_web_source_facts(source):
    """``(qualified_name, resolved_extends)`` entries for one source file.

    Phase (1)-(2) of the paper's approach for a single decompiled class:
    a cheap textual screen for files importing/naming
    ``android.webkit.WebView``, then a full parse with import-resolved
    ``extends``. Screened-out files and parse failures yield no entries
    (javalang failures were skipped the same way). Pure in the source
    text, so the result is cacheable under the class's content digest.
    """
    if WEBVIEW_CLASS.rsplit(".", 1)[0] not in source and "WebView" not in source:
        return ()
    unit = try_parse_java(source)
    if unit is None:
        return ()
    entries = []
    for class_decl in _iter_class_decls(unit):
        if class_decl.extends is None:
            continue
        entries.append((
            _qualified_name(unit, class_decl),
            unit.resolve_type(class_decl.extends),
        ))
    return tuple(entries)


def webview_subclasses_from_entries(entries):
    """Resolve the app-wide subclass set from per-class extends entries.

    Transitive subclasses (A extends B extends WebView) are resolved
    iteratively — this closure needs every class in the app, which is
    exactly why it stays per-APK while the entries themselves are
    memoized per class.
    """
    direct = set()
    extends_map = {}
    for qualified, resolved in entries:
        extends_map[qualified] = resolved
        if resolved == WEBVIEW_CLASS:
            direct.add(qualified)

    subclasses = set(direct)
    changed = True
    while changed:
        changed = False
        for qualified, parent in extends_map.items():
            if parent in subclasses and qualified not in subclasses:
                subclasses.add(qualified)
                changed = True
    return subclasses


def _iter_class_decls(unit):
    stack = list(unit.types)
    while stack:
        class_decl = stack.pop()
        yield class_decl
        stack.extend(class_decl.inner_classes)


def _qualified_name(unit, class_decl):
    if unit.package:
        return "%s.%s" % (unit.package, class_decl.name)
    return class_decl.name
