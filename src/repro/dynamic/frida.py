"""Frida-like dynamic instrumentation (Section 3.2.2).

"Using Frida, we dynamically override all methods of android.webkit.WebView
at run-time in order to record the WebView APIs used by the app, along with
the arguments passed." :class:`FridaSession` does exactly that to a
:class:`~repro.dynamic.webview_runtime.WebViewRuntime` instance: every
public method is wrapped, and invocations are recorded with their
arguments before delegating to the original implementation.
"""

from repro.errors import HookError


class HookedCall:
    """One intercepted method invocation."""

    __slots__ = ("method", "args", "kwargs")

    def __init__(self, method, args, kwargs):
        self.method = method
        self.args = args
        self.kwargs = kwargs

    def __repr__(self):
        return "HookedCall(%s, %d args)" % (self.method, len(self.args))


class FridaSession:
    """An instrumentation session over one target object."""

    def __init__(self):
        self.calls = []
        self._targets = []

    def attach(self, target, method_names=None):
        """Hook every public method of ``target`` (or the given subset)."""
        if target in self._targets:
            raise HookError("already attached to %r" % target)
        if method_names is None:
            method_names = [
                name for name in dir(target)
                if not name.startswith("_")
                and callable(getattr(target, name))
            ]
        for name in method_names:
            original = getattr(target, name, None)
            if original is None or not callable(original):
                raise HookError("no such method %r on %r" % (name, target))
            wrapped = self._wrap(name, original)
            setattr(target, name, wrapped)
        self._targets.append(target)
        return self

    def _wrap(self, name, original):
        session = self

        def hook(*args, **kwargs):
            session.calls.append(HookedCall(name, args, kwargs))
            return original(*args, **kwargs)

        hook.__name__ = name
        return hook

    # -- analysis helpers ----------------------------------------------------

    def methods_called(self):
        """Distinct hooked method names in first-call order."""
        seen = []
        for call in self.calls:
            if call.method not in seen:
                seen.append(call.method)
        return seen

    def calls_to(self, method):
        return [call for call in self.calls if call.method == method]

    def arguments_of(self, method):
        """First positional argument of every call to ``method``."""
        return [
            call.args[0] for call in self.calls_to(method) if call.args
        ]

    def injected_scripts(self):
        """JS the app pushed into the page via either injection route
        (evaluateJavascript, or loadUrl with a javascript: scheme)."""
        scripts = list(self.arguments_of("evaluateJavascript"))
        for url in self.arguments_of("loadUrl"):
            if isinstance(url, str) and url.startswith("javascript:"):
                scripts.append(url[len("javascript:"):])
        return scripts

    def injected_bridges(self):
        """Names passed to addJavascriptInterface."""
        names = []
        for call in self.calls_to("addJavascriptInterface"):
            if len(call.args) >= 2:
                names.append(call.args[1])
            elif call.args and hasattr(call.args[0], "name"):
                names.append(call.args[0].name)
        return names

    def injected_bridge_methods(self):
        """Bridge name -> tuple of exposed method names, from the bridge
        objects passed to ``addJavascriptInterface``.

        Ordering is deterministic: bridges appear in registration order
        and methods in the order the bridge object declares them. A
        bridge with no declared methods still exposes the opaque
        ``postMessage`` sink (mirroring
        :meth:`~repro.dynamic.webview_runtime.JsBridge.as_js_object`),
        so the attacker model always has something to probe.
        """
        methods = {}
        for call in self.calls_to("addJavascriptInterface"):
            if not call.args:
                continue
            bridge = call.args[0]
            if len(call.args) >= 2:
                name = call.args[1]
            elif hasattr(bridge, "name"):
                name = bridge.name
            else:
                continue
            exposed = tuple(getattr(bridge, "methods", None) or ())
            methods[name] = exposed if exposed else ("postMessage",)
        return methods

    def __len__(self):
        return len(self.calls)
