"""Android app components and intent filters.

The paper's static pipeline cares about two things at the manifest level:
which components exist (entry points for call-graph traversal) and which
activities are deep-link handlers — ``exported`` with a BROWSABLE intent
filter accepting http/https — which it excludes as likely first-party
content hosts (Section 3.1.3).
"""

from repro.android.axml import XmlElement
from repro.errors import ManifestError

ACTION_VIEW = "android.intent.action.VIEW"
ACTION_MAIN = "android.intent.action.MAIN"
CATEGORY_BROWSABLE = "android.intent.category.BROWSABLE"
CATEGORY_DEFAULT = "android.intent.category.DEFAULT"
CATEGORY_LAUNCHER = "android.intent.category.LAUNCHER"


class IntentFilter:
    """An intent filter: actions, categories, and data schemes/hosts."""

    def __init__(self, actions=None, categories=None, schemes=None, hosts=None):
        self.actions = list(actions or [])
        self.categories = list(categories or [])
        self.schemes = list(schemes or [])
        self.hosts = list(hosts or [])

    @property
    def is_browsable_web(self):
        """True if this filter makes the component a web deep-link handler."""
        return (
            CATEGORY_BROWSABLE in self.categories
            and any(s in ("http", "https") for s in self.schemes)
        )

    @property
    def is_launcher(self):
        return ACTION_MAIN in self.actions and CATEGORY_LAUNCHER in self.categories

    def matches(self, action, scheme=None, host=None):
        """Intent-filter matching (simplified: action + data scheme/host)."""
        if action not in self.actions:
            return False
        if scheme is not None:
            if self.schemes and scheme not in self.schemes:
                return False
            if not self.schemes:
                return False
        if host is not None and self.hosts:
            if not any(_host_matches(pattern, host) for pattern in self.hosts):
                return False
        return True

    def to_element(self):
        element = XmlElement("intent-filter")
        for action in self.actions:
            element.add(XmlElement("action", {"android:name": action}))
        for category in self.categories:
            element.add(XmlElement("category", {"android:name": category}))
        for scheme in self.schemes:
            data_attrs = {"android:scheme": scheme}
            element.add(XmlElement("data", data_attrs))
        for host in self.hosts:
            element.add(XmlElement("data", {"android:host": host}))
        return element

    @classmethod
    def from_element(cls, element):
        actions = [
            child.get("android:name")
            for child in element.find_all("action")
        ]
        categories = [
            child.get("android:name")
            for child in element.find_all("category")
        ]
        schemes = []
        hosts = []
        for data in element.find_all("data"):
            scheme = data.get("android:scheme")
            host = data.get("android:host")
            if scheme:
                schemes.append(scheme)
            if host:
                hosts.append(host)
        return cls(actions, categories, schemes, hosts)

    def __eq__(self, other):
        return isinstance(other, IntentFilter) and (
            (self.actions, self.categories, self.schemes, self.hosts)
            == (other.actions, other.categories, other.schemes, other.hosts)
        )

    def __repr__(self):
        return "IntentFilter(actions=%r, categories=%r)" % (
            self.actions, self.categories
        )


def _host_matches(pattern, host):
    if pattern.startswith("*."):
        return host == pattern[2:] or host.endswith(pattern[1:])
    return host == pattern


class Component:
    """Base class for the four Android component kinds."""

    kind = "component"
    element_tag = None

    def __init__(self, name, exported=False, intent_filters=None):
        if not name:
            raise ManifestError("component name must be non-empty")
        self.name = name
        self.exported = bool(exported)
        self.intent_filters = list(intent_filters or [])

    @property
    def is_deep_link_handler(self):
        """True for exported components with a BROWSABLE http(s) filter.

        These are the activities the paper filters out as likely hosts of
        first-party web content (Section 3.1.3).
        """
        return self.exported and any(
            f.is_browsable_web for f in self.intent_filters
        )

    def to_element(self):
        attrs = {"android:name": self.name}
        attrs["android:exported"] = "true" if self.exported else "false"
        element = XmlElement(self.element_tag, attrs)
        for intent_filter in self.intent_filters:
            element.add(intent_filter.to_element())
        return element

    @classmethod
    def from_element(cls, element):
        name = element.get("android:name")
        exported = element.get("android:exported", "false") == "true"
        filters = [
            IntentFilter.from_element(child)
            for child in element.find_all("intent-filter")
        ]
        return cls(name, exported=exported, intent_filters=filters)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.name == other.name
            and self.exported == other.exported
            and self.intent_filters == other.intent_filters
        )

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)


class Activity(Component):
    kind = "activity"
    element_tag = "activity"


class Service(Component):
    kind = "service"
    element_tag = "service"


class Receiver(Component):
    kind = "receiver"
    element_tag = "receiver"


class Provider(Component):
    kind = "provider"
    element_tag = "provider"


ELEMENT_TAG_TO_COMPONENT = {
    cls.element_tag: cls for cls in (Activity, Service, Receiver, Provider)
}
