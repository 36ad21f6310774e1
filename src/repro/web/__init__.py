"""Web substrate: URLs, DOM, HTML parsing, a JS interpreter, Web API
interception, the controlled test page, top-site models and endpoint
classification — everything the dynamic pipeline's measurements run on.
"""

from repro.web.urls import Url, parse_url, parse_url_cached
from repro.web.dom import Document, Element, TextNode
from repro.web.htmlparser import parse_html
from repro.web.webapi import WebApiRecorder
from repro.web.jsengine import (
    JsInterpreter,
    default_script_cache,
    parse_js,
    record_script_events,
    script_cache_override,
    script_digest,
)
from repro.web.html5_testpage import HTML5_TEST_PAGE, build_test_document
from repro.web.sites import SiteProfile, top_sites
from repro.web.classify import EndpointCategory, classify_endpoint

__all__ = [
    "Url",
    "parse_url",
    "parse_url_cached",
    "Document",
    "Element",
    "TextNode",
    "parse_html",
    "WebApiRecorder",
    "JsInterpreter",
    "default_script_cache",
    "parse_js",
    "record_script_events",
    "script_cache_override",
    "script_digest",
    "HTML5_TEST_PAGE",
    "build_test_document",
    "SiteProfile",
    "top_sites",
    "EndpointCategory",
    "classify_endpoint",
]
