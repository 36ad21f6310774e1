"""Tests for the DOM model, HTML parser, and Web API recorder."""

import pytest

from repro.errors import HtmlError
from repro.web.dom import Document, Element, TextNode
from repro.web.htmlparser import parse_html
from repro.web.html5_testpage import HTML5_TEST_PAGE, build_test_document
from repro.web.webapi import WebApiRecorder


class TestDom:
    def test_append_and_parent(self):
        parent = Element("div")
        child = parent.append_child(Element("span"))
        assert child.parent is parent
        assert parent.children == [child]

    def test_insert_before(self):
        parent = Element("div")
        first = parent.append_child(Element("a"))
        second = Element("b")
        parent.insert_before(second, first)
        assert [c.tag for c in parent.children] == ["b", "a"]

    def test_insert_before_none_appends(self):
        parent = Element("div")
        parent.insert_before(Element("a"), None)
        assert parent.children[0].tag == "a"

    def test_insert_before_bad_reference(self):
        with pytest.raises(HtmlError):
            Element("div").insert_before(Element("a"), Element("b"))

    def test_remove_child(self):
        parent = Element("div")
        child = parent.append_child(Element("a"))
        parent.remove_child(child)
        assert parent.children == []
        assert child.parent is None

    def test_reparenting_detaches(self):
        a = Element("div")
        b = Element("div")
        child = a.append_child(Element("span"))
        b.append_child(child)
        assert a.children == []
        assert child.parent is b

    def test_text_content(self):
        div = Element("div")
        div.append_child(TextNode("hello "))
        span = div.append_child(Element("span"))
        span.append_child(TextNode("world"))
        assert div.text_content() == "hello world"

    def test_get_elements_by_tag_name(self):
        document = build_test_document()
        assert len(document.get_elements_by_tag_name("section")) == 3
        assert len(document.get_elements_by_tag_name("*")) > 20

    def test_query_selector_id(self):
        document = build_test_document()
        element = document.query_selector("#checkout")
        assert element.tag == "form"

    def test_query_selector_class(self):
        document = build_test_document()
        assert document.query_selector(".lead").tag == "p"

    def test_query_selector_tag_and_class(self):
        document = build_test_document()
        assert document.query_selector("p.lead") is not None
        assert document.query_selector("div.lead") is None

    def test_query_selector_group(self):
        document = build_test_document()
        matches = document.query_selector_all("h1, h2")
        assert len(matches) == 4

    def test_get_element_by_id(self):
        document = build_test_document()
        assert document.get_element_by_id("hero").tag == "img"
        assert document.get_element_by_id("missing") is None

    def test_tag_histogram(self):
        document = build_test_document()
        # What Facebook's DOM-count probe walks: getElementsByTagName('*').
        tags = [el.tag for el in document.get_elements_by_tag_name("*")]
        assert tags.count("section") == 3
        assert tags.count("input") == 5

    def test_interfaces(self):
        assert Element("body").interface == "HTMLBodyElement"
        assert Element("meta").interface == "HTMLMetaElement"
        assert Element("div").interface == "Element"
        assert Document().interface == "Document"

    def test_event_listeners(self):
        element = Element("a")
        handler = object()
        element.add_event_listener("click", handler)
        assert element.event_listeners["click"] == [handler]
        element.remove_event_listener("click", handler)
        assert element.event_listeners["click"] == []


class TestHtmlParser:
    def test_basic_structure(self):
        document = parse_html("<html><head></head><body><p>hi</p></body></html>")
        assert document.body is not None
        assert document.body.children[0].tag == "p"

    def test_attributes(self):
        document = parse_html('<html><body><a href="/x" id="link1">t</a></body></html>')
        anchor = document.get_element_by_id("link1")
        assert anchor.get_attribute("href") == "/x"

    def test_unquoted_and_bare_attributes(self):
        document = parse_html("<html><body><input type=text disabled></body></html>")
        element = document.body.children[0]
        assert element.get_attribute("type") == "text"
        assert element.has_attribute("disabled")

    def test_void_elements(self):
        document = parse_html("<html><body><img src='/a'><p>x</p></body></html>")
        tags = [c.tag for c in document.body.children]
        assert tags == ["img", "p"]

    def test_comments_skipped(self):
        document = parse_html("<html><body><!-- note --><p>x</p></body></html>")
        assert [c.tag for c in document.body.children] == ["p"]

    def test_doctype_skipped(self):
        document = parse_html("<!DOCTYPE html><html><body></body></html>")
        assert document.body is not None

    def test_script_rawtext(self):
        document = parse_html(
            "<html><body><script>if (a < b) { x(); }</script></body></html>"
        )
        script = document.body.children[0]
        assert script.tag == "script"
        assert "a < b" in script.text_content()

    def test_self_closing(self):
        document = parse_html("<html><body><video src='/v'/></body></html>")
        assert document.body.children[0].tag == "video"

    def test_mismatched_close_recovers(self):
        document = parse_html(
            "<html><body><div><p>x</div><span>y</span></body></html>"
        )
        assert document.body.children[-1].tag == "span"

    def test_stray_close_ignored(self):
        document = parse_html("<html><body></nope><p>x</p></body></html>")
        assert document.body.children[0].tag == "p"

    def test_unterminated_comment_raises(self):
        with pytest.raises(HtmlError):
            parse_html("<html><!-- oops")

    def test_unterminated_tag_raises(self):
        with pytest.raises(HtmlError):
            parse_html("<html><body><a href='x")

    def test_test_page_parses(self):
        document = build_test_document()
        assert document.get_element_by_id("title") is not None
        assert document.readyState == "complete"

    def test_test_page_has_trace_script_in_body(self):
        """The controlled page carries its trace script (3.2.2)."""
        document = build_test_document()
        scripts = document.body.get_elements_by_tag_name("script")
        assert any(
            s.get_attribute("src") == "/js/trace.js" for s in scripts
        )

    def test_test_page_has_checkout_form(self):
        """The autofill intent needs form fields to matter."""
        assert 'id="card"' in HTML5_TEST_PAGE
        document = build_test_document()
        assert document.get_element_by_id("card") is not None


class TestRecorder:
    def test_record_and_pairs(self):
        recorder = WebApiRecorder()
        recorder.record("Document", "getElementById", ("x",))
        recorder.record("Document", "getElementById", ("y",))
        recorder.record("Element", "hasAttribute")
        assert recorder.pairs() == [
            ("Document", "getElementById"), ("Element", "hasAttribute")
        ]
        assert len(recorder) == 3

    def test_methods_by_interface(self):
        recorder = WebApiRecorder()
        recorder.record("NodeList", "item")
        recorder.record("Document", "createElement")
        assert recorder.pairs() == [
            ("NodeList", "item"), ("Document", "createElement"),
        ]

    def test_read_only_detection(self):
        recorder = WebApiRecorder()
        recorder.record("Document", "querySelectorAll")
        recorder.record("HTMLMetaElement", "getAttribute")
        assert recorder.read_only
        recorder.record("HTMLBodyElement", "insertBefore")
        assert not recorder.read_only

    def test_count_filters(self):
        recorder = WebApiRecorder()
        recorder.record("Document", "createElement")
        recorder.record("Document", "getElementById")
        assert recorder.count(interface="Document") == 2
        assert recorder.count(method="createElement") == 1
