"""The WebView and Custom Tabs API surface, and the Table 1 comparison.

Central definitions used throughout the pipelines: the framework class
names, the WebView methods that load/modify web content (Section 3.1.4 and
Table 7), and the CT launch method. Keeping these here means the corpus
generator, static pipeline and dynamic runtime all agree on one vocabulary.
"""

#: The framework WebView class (android.webkit.WebView).
WEBVIEW_CLASS = "android.webkit.WebView"

#: The AndroidX Custom Tabs intent class.
CUSTOMTABS_INTENT_CLASS = "androidx.browser.customtabs.CustomTabsIntent"

#: CustomTabsIntent.Builder, used to initialize a CT.
CUSTOMTABS_BUILDER_CLASS = "androidx.browser.customtabs.CustomTabsIntent$Builder"

#: The CT method that populates content (Section 3.1.4).
CT_LAUNCH_METHOD = "launchUrl"

#: WebView methods that populate content into the view (Section 3.1.4):
#: "we searched for calls to one of the following methods".
WEBVIEW_CONTENT_METHODS = ("loadUrl", "loadData", "loadDataWithBaseURL")

#: The full set of WebView API methods the paper tracks in Table 7 — methods
#: that can be used to load and modify (by injecting JS) requested content.
WEBVIEW_TRACKED_METHODS = (
    "loadUrl",
    "addJavascriptInterface",
    "loadDataWithBaseURL",
    "evaluateJavascript",
    "removeJavascriptInterface",
    "loadData",
    "postUrl",
)

#: Methods that inject JS into the page (Section 3.2.2).
WEBVIEW_JS_INJECTION_METHODS = ("evaluateJavascript", "loadUrl")

#: Other WebView surface methods a runtime exposes (used by the hook engine
#: so instrumentation covers *all* methods, as the paper's Frida scripts do).
WEBVIEW_OTHER_METHODS = (
    "getSettings",
    "setWebViewClient",
    "setWebChromeClient",
    "reload",
    "stopLoading",
    "goBack",
    "goForward",
    "canGoBack",
    "canGoForward",
    "clearCache",
    "clearHistory",
    "destroy",
    "getUrl",
    "getTitle",
    "setDownloadListener",
)

WEBVIEW_ALL_METHODS = WEBVIEW_TRACKED_METHODS + WEBVIEW_OTHER_METHODS

#: Descriptors of the tracked WebView methods as they appear in bytecode.
WEBVIEW_METHOD_DESCRIPTORS = {
    "loadUrl": "(java.lang.String)void",
    "loadData": "(java.lang.String,java.lang.String,java.lang.String)void",
    "loadDataWithBaseURL": (
        "(java.lang.String,java.lang.String,java.lang.String,"
        "java.lang.String,java.lang.String)void"
    ),
    "evaluateJavascript": (
        "(java.lang.String,android.webkit.ValueCallback)void"
    ),
    "addJavascriptInterface": "(java.lang.Object,java.lang.String)void",
    "removeJavascriptInterface": "(java.lang.String)void",
    "postUrl": "(java.lang.String,byte[])void",
}

CT_LAUNCH_DESCRIPTOR = "(android.content.Context,android.net.Uri)void"

#: The X-Requested-With header WebViews attach to every request, carrying
#: the APK package name (Section 5) — sites can use it to detect WebViews.
X_REQUESTED_WITH_HEADER = "X-Requested-With"


def is_customtabs_init(method_ref):
    """True if a MethodRef initializes or launches a Custom Tab."""
    if method_ref.class_name == CUSTOMTABS_INTENT_CLASS:
        return method_ref.method_name == CT_LAUNCH_METHOD
    if method_ref.class_name == CUSTOMTABS_BUILDER_CLASS:
        return method_ref.method_name in ("<init>", "build")
    return False


# -- Table 1: qualitative comparison -----------------------------------------

#: The paper's Table 1, as structured data. ``True`` marks the safer/better
#: option for displaying third-party web content.
COMPARISON_MATRIX = (
    {
        "attribute": "Attack vectors from third-party web content",
        "webview": False,
        "webview_note": "bidirectional access between web and app contexts",
        "customtabs": True,
        "customtabs_note": "untrusted content isolated in browser context",
    },
    {
        "attribute": "Phishing",
        "webview": False,
        "webview_note": "cookie/credential stealing",
        "customtabs": True,
        "customtabs_note": "passkeys, secure UI (TLS icon); side channels exist",
    },
    {
        "attribute": "Browser fingerprinting",
        "webview": False,
        "webview_note": "significantly more vulnerable",
        "customtabs": True,
        "customtabs_note": "same default browser across apps",
    },
    {
        "attribute": "Page load time",
        "webview": False,
        "webview_note": "slower, no pre-initialization",
        "customtabs": True,
        "customtabs_note": "faster, allows pre-initialization",
    },
    {
        "attribute": "User experience",
        "webview": False,
        "webview_note": "repeated authentication",
        "customtabs": True,
        "customtabs_note": "sessions restored from browser cookies",
    },
)
