"""Fail on definitions in src/ that no study, benchmark or example uses.

A function, class or method defined under src/ counts as used when its
name occurs, outside the definition itself, in src/, benchmarks/,
examples/ or a ```python block of README.md (tier-1 runs those blocks).
tests/ does not count: a definition only tests call is dead code with a
test attached.

What counts as a use, read from the AST (so Python 3.9 and 3.12 agree):
names, attributes, imported names, keyword-argument names, and the words
of string constants (benchmarks/e2e/trace.py names its targets as
strings). What does not count: comments, docstrings, and the imports and
``__all__`` of a package's __init__.py (a re-export is not a caller).

Dunder names are skipped, and so is src/repro/errors.py: error_classes()
enumerates that module by reflection.

A definition kept on purpose goes in ALLOWED with the paper section,
DESIGN row, README section or test-reference role it stands for. An
entry also covers the definitions nested in it. An entry fails once it
matches no definition or once non-test code uses its name.

Two limits. This is a name scan, not reachability: a helper that only a
dead definition calls still counts as used, so it has to go by hand with
its caller. And a name shared by two definitions counts as a use of
both, so one of them can be dead unseen (``from_env`` was).

Run from the repository root: ``python .github/deadcode.py``. It prints
nothing and exits 0 when every definition is used or allowed.
"""

import ast
import collections
import pathlib
import re
import sys

ALLOWED = {
    "repro.android.components.IntentFilter.is_launcher":
        "test reference: the MAIN/LAUNCHER filter the corpus generator"
        " gives each app's main activity; tests find it through this",
    "repro.decompiler.jadx.DecompiledApp.class_names":
        "3.1 step 3, JADX's whole-APK interface (APK in, one source per"
        " class out); studies decompile per class through the class-facts"
        " cache, tests/test_decompiler.py checks the whole-APK contract",
    "repro.decompiler.jadx.DecompiledApp.source_for":
        "3.1 step 3, JADX's whole-APK interface (see class_names)",
    "repro.decompiler.jadx.Decompiler.decompile_bytes":
        "3.1 step 3, JADX's whole-APK interface (see class_names)",
    "repro.dex.binary.class_digest":
        "test reference: the plain digest of serialize_class that the"
        " digest tests compare deserialize_dex's inlined digests against",
    "repro.dynamic.cookies.WebViewCookieManager.remove_all_cookies":
        "Table 1 user-experience row: Android CookieManager's app-scoped"
        " jar, the reason WebView logins do not carry over",
    "repro.dynamic.customtab_runtime.CustomTabsCallback"
    ".on_greatest_scroll_percentage_increased":
        "DESIGN 6, CustomTabsCallback engagement signals",
    "repro.dynamic.customtab_runtime.PartialCustomTab.resize":
        "DESIGN 6, Partial Custom Tabs (resizable inline CTs)",
    "repro.dynamic.remote_debug.RemoteDebugger":
        "DESIGN 6 and paper 4.2.1, remote GUI debugging",
    "repro.impact.census.ImpactResult.severity_counts":
        "DESIGN 15, the severity census per attacker model",
    "repro.obs.logs.configure":
        "README 'Observability': the opt-in that makes the library log",
    "repro.results.store.ResultsStore.load_registry":
        "DESIGN 13, run history: reads back each run's registry snapshot",
    "repro.sdk.catalog.SdkProfile.webview_probability":
        "Table 4: an SDK's WebView apps as a share of the 146,558"
        " analysed apps",
    "repro.sdk.catalog.named_sdks":
        "test reference: the SDKs the paper's Tables 4 and 5 name, whose"
        " counts tests/test_sdk_catalog.py pins",
    "repro.static_analysis.export.export_calls_csv":
        "the research-data release (paper's offer to share its data):"
        " call-level CSV beside export_study_json",
    "repro.static_analysis.export.export_study_csv":
        "the research-data release: per-app CSV beside export_study_json",
    "repro.static_analysis.export.load_study_json":
        "the research-data release: reads an export back, checking its"
        " schema",
    "repro.web.sitepolicy.PolicyRegistry.decide":
        "DESIGN 6, website-side WebView policies via X-Requested-With",
    "repro.web.sitepolicy.default_web_policies":
        "DESIGN 6, website-side WebView policies (Facebook, NAVER)",
    "repro.web.urls.Url.query_params":
        "DESIGN 14: the decoded query parameters of a URL",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOCSTRING_OWNERS = (ast.Module,) + DEFINITIONS


def sources():
    """``(name, text)`` of every file whose uses count."""
    for root in ("src", "benchmarks", "examples"):
        for path in sorted(pathlib.Path(root).rglob("*.py")):
            yield path.as_posix(), path.read_text("utf-8")
    readme = pathlib.Path("README.md").read_text("utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    for number, block in enumerate(blocks):
        yield "README.md#%d" % number, block


def ignored_nodes(tree, is_package_init):
    """Docstrings, and a package __init__'s re-exports."""
    ignored = []
    for node in ast.walk(tree):
        if isinstance(node, DOCSTRING_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                ignored.append(first)
    if is_package_init:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                ignored.append(node)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                ignored.append(node)
    return {id(sub) for node in ignored for sub in ast.walk(node)}


def uses(tree, is_package_init):
    """``(word, line)`` for every use; line is the enclosing statement's."""
    ignored = ignored_nodes(tree, is_package_init)

    def visit(node, line):
        if isinstance(node, ast.stmt):
            line = node.lineno
        if id(node) not in ignored:
            if isinstance(node, ast.Name):
                yield node.id, line
            elif isinstance(node, ast.Attribute):
                yield node.attr, line
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1], line
            elif isinstance(node, ast.keyword) and node.arg:
                yield node.arg, line
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                for word in re.findall(r"\w+", node.value):
                    yield word, line
        for child in ast.iter_child_nodes(node):
            yield from visit(child, line)

    return visit(tree, 0)


def definitions(path, tree):
    """``(qualified name, definition node)`` for every def in a module."""
    module = ".".join(path.with_suffix("").parts[1:])
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                name = prefix + "." + child.name
                yield name, child
                yield from visit(child, name)
            else:
                yield from visit(child, prefix)

    return visit(tree, module)


def main():
    where = collections.defaultdict(list)
    for name, text in sources():
        is_package_init = (name.startswith("src/")
                           and name.endswith("/__init__.py"))
        for word, line in uses(ast.parse(text), is_package_init):
            where[word].append((name, line))

    def used(path, node):
        own = path.as_posix()
        return any(name != own or not node.lineno <= line <= node.end_lineno
                   for name, line in where[node.name])

    problems = []
    matched = set()
    for path in sorted(pathlib.Path("src").rglob("*.py")):
        if path.as_posix() == "src/repro/errors.py":
            continue
        for qualname, node in definitions(path, ast.parse(
                path.read_text("utf-8"))):
            is_used = used(path, node)
            if qualname in ALLOWED:
                matched.add(qualname)
                if is_used:
                    problems.append("%s:%d: %s is allowed but now used;"
                                    " drop it from ALLOWED"
                                    % (path, node.lineno, qualname))
                continue
            if is_used or re.fullmatch(r"__\w+__", node.name):
                continue
            if any(qualname.startswith(entry + ".") for entry in ALLOWED):
                continue
            problems.append("%s:%d: %s is used nowhere outside tests"
                            % (path, node.lineno, qualname))
    for entry in sorted(set(ALLOWED) - matched):
        problems.append("ALLOWED entry %s matches no definition" % entry)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
