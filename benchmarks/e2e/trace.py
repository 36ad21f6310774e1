"""Layer tracing for bench_e2e: one table of wrapped public functions.

Every function the traced run times is one row of :data:`TARGETS`:
``(layer, module, attribute)``, where ``attribute`` names a module-level
function or a ``Class.method``. :func:`install` swaps each for a timing
wrapper. A function is patched in its defining module *and* in every
loaded module that bound it with ``from ... import``, because those
callers hold their own reference. A target that no longer exists
raises :class:`TraceError`, so a rename cannot silently drop a layer.

Spans stay in memory (name, start, end, parent, thread) and are written
out once, by :meth:`Recorder.dump`. Wrappers record only between
:meth:`Recorder.resume` and :meth:`Recorder.pause`, and never in a forked
child: pool workers inherit the patched modules but call straight
through, so on the process backend the trace holds parent-side calls
only.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time

#: ``(layer, module, attribute)`` for every traced function. Several rows
#: may share a layer; their spans are reported together.
TARGETS = (
    ("corpus.generate_corpus", "repro.corpus.generator", "generate_corpus"),
    ("corpus.evolve_corpus", "repro.corpus.evolution", "evolve_corpus"),
    ("corpus.build_app_apk", "repro.corpus.appgen", "build_app_apk"),
    ("androzoo.select_apps", "repro.static_analysis.pipeline",
     "StaticAnalysisPipeline.select_apps"),
    ("androzoo.download", "repro.androzoo.repository",
     "AndroZooRepository.download"),
    ("androzoo.diff_snapshots", "repro.androzoo.repository",
     "diff_snapshots"),
    ("static_analysis.analyze_apk_bytes", "repro.static_analysis.pipeline",
     "analyze_apk_bytes"),
    ("static_analysis.facts_for_class", "repro.static_analysis.classfacts",
     "facts_for_class"),
    ("apk.read_apk", "repro.apk.container", "read_apk"),
    ("dex.serialize_class", "repro.dex.binary", "serialize_class"),
    ("decompiler.decompile_class", "repro.decompiler.jadx",
     "Decompiler.decompile_class"),
    ("javasrc.try_parse_java", "repro.javasrc.parser", "try_parse_java"),
    ("callgraph.class_method_summary", "repro.callgraph.builder",
     "class_method_summary"),
    ("callgraph.build_call_graph", "repro.callgraph.builder",
     "build_call_graph"),
    ("callgraph.reachable_from", "repro.callgraph.graph",
     "CallGraph.reachable_from"),
    ("sdk.label", "repro.sdk.labeling", "SdkLabeler.label"),
    ("web.parse_js", "repro.web.jsengine", "parse_js"),
    ("web.js_run", "repro.web.jsengine", "JsInterpreter.run"),
    ("netstack.fetch", "repro.netstack.network", "Network.fetch"),
    ("dynamic.load_url", "repro.dynamic.webview_runtime",
     "WebViewRuntime.loadUrl"),
    ("dynamic.evaluate_js", "repro.dynamic.webview_runtime",
     "WebViewRuntime.evaluateJavascript"),
    ("impact.probe_app", "repro.impact.attacker", "probe_app"),
    ("endpoints.summary_for_class", "repro.endpoints.summaries",
     "summary_for_class"),
    ("endpoints.reconstruct", "repro.endpoints.census",
     "reconstruct_endpoints"),
    ("endpoints.cross_validate", "repro.endpoints.crossval",
     "cross_validate"),
    ("longitudinal.runstore_read", "repro.longitudinal.runstore",
     "RunStore.get_outcome"),
    ("longitudinal.runstore_read", "repro.longitudinal.runstore",
     "RunStore.load_checkpoint"),
    ("longitudinal.runstore_read", "repro.longitudinal.runstore",
     "RunStore.latest_complete"),
    ("longitudinal.runstore_write", "repro.longitudinal.runstore",
     "RunStore.put_outcome_by_token"),
    ("longitudinal.runstore_write", "repro.longitudinal.runstore",
     "RunStore.write_checkpoint"),
    ("longitudinal.runstore_write", "repro.longitudinal.runstore",
     "RunStore.write_manifest"),
    ("results.prepare_study_row", "repro.results.store",
     "prepare_study_row"),
    ("results.ingest", "repro.results.store", "ResultsStore.ingest"),
    ("results.ingest_webapi", "repro.results.store",
     "ResultsStore.ingest_webapi"),
    ("results.ingest_impact", "repro.results.store",
     "ResultsStore.ingest_impact"),
    ("results.ingest_endpoints", "repro.results.store",
     "ResultsStore.ingest_endpoints"),
    ("results.generation", "repro.results.store", "ResultsStore.generation"),
    ("results.latest_seq", "repro.results.store", "ResultsStore.latest_seq"),
) + tuple(
    ("results.query", "repro.results.serve", "ResultsService." + name)
    for name in ("sdk_league", "adoption_trend", "nutrition_label",
                 "endpoint_summary", "endpoint_census", "webapi_usage",
                 "bridge_findings", "capability_ranking",
                 "static_endpoints", "static_sdk_census", "validation",
                 "funnel")
)

#: Layer names in table order, each once.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class TraceError(RuntimeError):
    """A trace target is missing: the table no longer matches the code."""


class Recorder:
    """In-memory span store shared by every wrapper of one install."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``[layer, start, end, parent index or -1, thread id]`` rows.
        self.spans = []
        self.enabled = False
        #: Seconds spent recording (between resume and pause).
        self.active_s = 0.0
        self._resumed_at = None
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.enabled = False

    def resume(self):
        self._resumed_at = self.clock()
        self.enabled = True

    def pause(self):
        self.enabled = False
        self.active_s += self.clock() - self._resumed_at

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn):
        clock = self.clock
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                    threading.get_ident()]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def self_times(self):
        """``{layer: (self seconds, calls)}`` over every recorded span.

        A span's self time is its duration minus its children's, so the
        self times of one thread's spans sum to the time its top-level
        spans cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for index, (layer, start, end, _, _) in enumerate(spans):
            entry = totals[layer]
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
        return {layer: (entry[0], entry[1]) for layer, entry in totals.items()}

    def summary(self, thread=None):
        """Recorded time, its unattributed part, and per-layer self time.

        The unattributed time is the recording time ``thread`` (default:
        the main thread) spent outside any traced span; other threads'
        spans overlap it in wall time and are not subtracted.
        """
        if thread is None:
            thread = threading.main_thread().ident
        attributed = sum(end - start for _, start, end, parent, owner
                         in self.spans if parent < 0 and owner == thread)
        return {
            "wall_s": self.active_s,
            "unattributed_s": self.active_s - attributed,
            "layers": self.self_times(),
        }

    def dump(self, path, **meta):
        """Write the spans as JSON: layer names plus one row per span."""
        document = dict(meta)
        document["layers"] = list(LAYERS)
        index = {layer: position for position, layer in enumerate(LAYERS)}
        document["columns"] = ["layer", "start", "end", "parent", "thread"]
        document["spans"] = [
            [index[layer], start, end, parent, thread]
            for layer, start, end, parent, thread in self.spans
        ]
        with open(path, "w") as handle:
            json.dump(document, handle)


def _resolve(module_name, attribute):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError("trace target module %s: %s" % (module_name, exc))
    owner = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError("trace target %s.%s: no %s"
                             % (module_name, attribute, part))
    name = parts[-1]
    original = owner.__dict__.get(name) if isinstance(owner, type) \
        else getattr(owner, name, None)
    if original is None or not callable(original):
        raise TraceError("trace target %s.%s is missing"
                         % (module_name, attribute))
    return owner, name, original


def install(recorder):
    """Patch every target; returns an ``uninstall()`` callable.

    Every target is resolved before anything is patched, so a missing
    one leaves the modules untouched. Functions are also replaced in
    every loaded module that holds the same object under the same name
    (``from x import f``), the benchmark's own modules included.
    """
    resolved = [(layer,) + _resolve(module_name, attribute)
                for layer, module_name, attribute in TARGETS]
    patches = []
    for layer, owner, name, original in resolved:
        wrapper = recorder.wrap(layer, original)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module for module in list(sys.modules.values())
                if module is not owner
                and getattr(module, "__dict__", {}).get(name) is original
            ]
        for holder in holders:
            patches.append((holder, name, original))
            setattr(holder, name, wrapper)

    def uninstall():
        for holder, name, original in reversed(patches):
            setattr(holder, name, original)

    return uninstall
