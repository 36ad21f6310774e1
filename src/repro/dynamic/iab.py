"""In-App Browser definitions.

The paper defines an IAB as "any non-browser Activity that can navigate to
an arbitrary URL". Clicking a link in an app produces a
:class:`LinkOpenEvent` describing which of the three routes was taken:
the default Web URI intent (browser), a WebView-based IAB, or a CT-based
IAB.
"""

import enum


class IabKind(enum.Enum):
    BROWSER = "browser"          # default: Web URI intent -> browser
    WEBVIEW = "webview"          # WebView-based IAB
    CUSTOM_TAB = "custom_tab"    # CT-based IAB

    def __str__(self):
        return self.value


class LinkOpenEvent:
    """What happened when a link was clicked inside an app."""

    def __init__(self, app_package, url, kind, runtime=None,
                 intent_raised=False, surface=None):
        self.app_package = app_package
        self.url = url
        self.kind = kind
        #: The WebViewRuntime / CustomTabRuntime when an IAB opened.
        self.runtime = runtime
        #: Whether a Web URI intent was raised (the 11 IAB apps never do).
        self.intent_raised = intent_raised
        #: Where in the app the link lived (Post / DM / Story / ...).
        self.surface = surface

    def __repr__(self):
        return "LinkOpenEvent(%s, %s, %s)" % (
            self.app_package, self.kind, self.url
        )
