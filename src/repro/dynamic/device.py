"""The simulated measurement device.

A rooted Pixel 3 running LineageOS 19 (Section 3.2.2): installed apps,
a default browser, Web URI intent dispatch, Logcat, and per-WebView
NetLog access (the userdebug privilege that made the paper's
per-instance network logging possible).
"""

from repro.android.intents import Intent, resolve_intent
from repro.dynamic.cookies import DeviceCookieStores
from repro.errors import DeviceError
from repro.netstack.netlog import NetLog
from repro.netstack.network import Network


class Logcat:
    """The device log buffer."""

    def __init__(self):
        self.lines = []

    def log(self, tag, message):
        self.lines.append((tag, message))

    def filter(self, tag):
        return [message for t, message in self.lines if t == tag]

    def clear(self):
        self.lines = []

    def __len__(self):
        return len(self.lines)


class Device:
    """A simulated Android device."""

    MODEL = "Pixel 3"
    OS = "LineageOS 19 (userdebug)"

    def __init__(self, network=None, default_browser="com.android.chrome",
                 rooted=True):
        self.network = network or Network()
        self.default_browser = default_browser
        self.rooted = rooted
        self.logcat = Logcat()
        self._apps = {}          # package -> app object (has .manifest)
        self._netlogs = []
        self.clock_ms = 0.0
        #: Per-app WebView cookie jars (the CT browser jar lives in
        #: BrowserSession) — Table 1's session-persistence asymmetry.
        self.cookie_stores = DeviceCookieStores()

    # -- app management ------------------------------------------------------

    def install(self, app):
        """Install an app (anything exposing .package and .manifest)."""
        self._apps[app.package] = app
        self.logcat.log("PackageManager", "installed %s" % app.package)
        return app

    def uninstall(self, package):
        self._apps.pop(package, None)

    def app(self, package):
        if package not in self._apps:
            raise DeviceError("app not installed: %s" % package)
        return self._apps[package]

    # -- intents ---------------------------------------------------------------

    def dispatch(self, intent):
        """Dispatch an intent with Android-12+ semantics; logs the result."""
        manifests = [
            app.manifest for app in self._apps.values()
            if getattr(app, "manifest", None) is not None
        ]
        resolution = resolve_intent(intent, manifests,
                                    default_browser=self.default_browser)
        self.logcat.log(
            "ActivityManager",
            "intent %s data=%s -> %s (%s)" % (
                intent.action, intent.data, resolution.kind,
                resolution.handler,
            ),
        )
        return resolution

    def open_url_via_intent(self, url):
        """What clicking a link *should* do: raise a Web URI intent."""
        return self.dispatch(Intent.view(url))

    # -- netlog access (rooted userdebug privilege) --------------------------------

    def new_netlog(self):
        """A fresh per-WebView-instance network log."""
        if not self.rooted:
            raise DeviceError(
                "per-instance NetLog capture requires a rooted userdebug build"
            )
        netlog = NetLog(source_id=len(self._netlogs))
        self._netlogs.append(netlog)
        return netlog

    def advance_clock(self, milliseconds):
        self.clock_ms += milliseconds

    def __repr__(self):
        return "Device(%s, %d apps)" % (self.MODEL, len(self._apps))
