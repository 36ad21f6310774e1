"""A DOM implementation sufficient for the paper's injected scripts.

Supports the APIs the IAB injections exercise (Table 9): element lookup
(``getElementById``, ``getElementsByTagName``, ``querySelectorAll``),
creation/insertion (``createElement``, ``insertBefore``, ``appendChild``),
attribute access, event listeners, and live ``HTMLCollection``/``NodeList``
views. Every call can be reported to a :class:`~repro.web.webapi.WebApiRecorder`
the way the controlled page's trace script reports to the paper's server.
"""

from repro.errors import HtmlError

#: Tag -> DOM interface name, for Web API attribution. Table 9 attributes
#: calls to the specific interface only where the real trace script did
#: (HTMLBodyElement, HTMLMetaElement); other elements report as `Element`.
TAG_INTERFACES = {
    "body": "HTMLBodyElement",
    "meta": "HTMLMetaElement",
}


class Node:
    """Base DOM node."""

    def __init__(self):
        self.parent = None
        self.children = []

    def append_child(self, node):
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def insert_before(self, new_node, reference):
        if reference is None:
            return self.append_child(new_node)
        if reference not in self.children:
            raise HtmlError("insertBefore reference is not a child")
        new_node.detach()
        new_node.parent = self
        self.children.insert(self.children.index(reference), new_node)
        return new_node

    def remove_child(self, node):
        if node not in self.children:
            raise HtmlError("removeChild target is not a child")
        self.children.remove(node)
        node.parent = None
        return node

    def detach(self):
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def iter_subtree(self):
        yield self
        for child in self.children:
            for node in child.iter_subtree():
                yield node

    def text_content(self):
        parts = []
        for node in self.iter_subtree():
            if isinstance(node, TextNode):
                parts.append(node.data)
        return "".join(parts)


class TextNode(Node):
    def __init__(self, data):
        super().__init__()
        self.data = data

    def __repr__(self):
        return "TextNode(%r)" % self.data[:30]


class Element(Node):
    """An HTML element."""

    def __init__(self, tag, attrs=None):
        super().__init__()
        self.tag = tag.lower()
        self.attrs = dict(attrs or {})
        self.event_listeners = {}

    # -- interface metadata ------------------------------------------------

    @property
    def interface(self):
        return TAG_INTERFACES.get(self.tag, "Element")

    @property
    def tag_name(self):
        return self.tag.upper()

    # -- attributes --------------------------------------------------------

    def get_attribute(self, name):
        return self.attrs.get(name)

    def set_attribute(self, name, value):
        self.attrs[name] = value

    def has_attribute(self, name):
        return name in self.attrs

    @property
    def element_id(self):
        return self.attrs.get("id")

    @property
    def class_list(self):
        return (self.attrs.get("class") or "").split()

    # -- events ---------------------------------------------------------------

    def add_event_listener(self, event, handler):
        self.event_listeners.setdefault(event, []).append(handler)

    def remove_event_listener(self, event, handler):
        handlers = self.event_listeners.get(event, [])
        if handler in handlers:
            handlers.remove(handler)

    # -- queries ----------------------------------------------------------------

    def elements(self):
        for node in self.iter_subtree():
            if isinstance(node, Element):
                yield node

    def get_elements_by_tag_name(self, tag):
        tag = tag.lower()
        return [
            el for el in self.elements()
            if (tag == "*" or el.tag == tag) and el is not self
        ]

    def query_selector_all(self, selector):
        """Simple selectors: ``*``, ``tag``, ``#id``, ``.class``, and
        comma-separated groups thereof."""
        matched = []
        for part in selector.split(","):
            part = part.strip()
            for el in self.elements():
                if el is self or el in matched:
                    continue
                if _selector_matches(part, el):
                    matched.append(el)
        return matched

    def query_selector(self, selector):
        result = self.query_selector_all(selector)
        return result[0] if result else None

    def __repr__(self):
        ident = ("#%s" % self.element_id) if self.element_id else ""
        return "<%s%s>" % (self.tag, ident)


def _selector_matches(selector, element):
    if selector == "*":
        return True
    if selector.startswith("#"):
        return element.element_id == selector[1:]
    if selector.startswith("."):
        return selector[1:] in element.class_list
    if "." in selector:
        tag, cls = selector.split(".", 1)
        return element.tag == tag.lower() and cls in element.class_list
    return element.tag == selector.lower()


class Document(Element):
    """The document node (also the root element container)."""

    def __init__(self, url="about:blank"):
        super().__init__("#document")
        self.url = url
        self.readyState = "loading"

    @property
    def interface(self):
        return "Document"

    @property
    def document_element(self):
        for child in self.children:
            if isinstance(child, Element) and child.tag == "html":
                return child
        return None

    @property
    def body(self):
        html = self.document_element
        if html is None:
            return None
        for child in html.children:
            if isinstance(child, Element) and child.tag == "body":
                return child
        return None

    @property
    def head(self):
        html = self.document_element
        if html is None:
            return None
        for child in html.children:
            if isinstance(child, Element) and child.tag == "head":
                return child
        return None

    def create_element(self, tag):
        return Element(tag)

    def create_text_node(self, data):
        return TextNode(data)

    def get_element_by_id(self, element_id):
        for el in self.elements():
            if el.element_id == element_id:
                return el
        return None

    def __repr__(self):
        return "Document(%s, %d elements)" % (
            self.url, sum(1 for _ in self.elements()) - 1
        )
