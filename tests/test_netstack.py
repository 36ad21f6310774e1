"""Tests for the network stack: NetLog, Network, page-load model."""

import pickle

import pytest

from repro.android.api import X_REQUESTED_WITH_HEADER
from repro.errors import DnsError
from repro.netstack import (
    LoaderKind,
    NetLog,
    Network,
    PageLoadModel,
    Request,
)
from repro.netstack.netlog import NetLogBlock, NetLogEventType
from repro.web.sites import SiteCategory, top_sites


class TestNetLog:
    def test_event_recording(self):
        netlog = NetLog()
        netlog.log(NetLogEventType.REQUEST_ALIVE, "https://x.com/", 0.0)
        assert len(netlog) == 1
        assert netlog.events[0].event_type == NetLogEventType.REQUEST_ALIVE

    def test_urls_deduplicated_in_order(self):
        netlog = NetLog()
        for url in ("https://a.com/", "https://b.com/", "https://a.com/"):
            netlog.log(NetLogEventType.REQUEST_ALIVE, url, 0.0)
        assert netlog.urls() == ["https://a.com/", "https://b.com/"]

    def test_hosts(self):
        netlog = NetLog()
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST,
                   "https://a.com/x", 0.0)
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST,
                   "https://a.com/y", 0.0)
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST,
                   "https://b.com:8443/z", 0.0)
        assert netlog.hosts() == ["a.com", "b.com"]

    def test_purge(self):
        netlog = NetLog()
        netlog.log(NetLogEventType.REQUEST_ALIVE, "https://x.com/", 0.0)
        netlog.purge()
        assert len(netlog) == 0


def _per_event_dicts(netlog):
    """The span-event dicts a block of these events must render."""
    return [{"name": event.event_type.value, "time": event.time_ms,
             "attributes": {"url": event.url,
                            "details": dict(event.details)}}
            for event in netlog.events]


class _Opaque:
    """A details value marshal cannot hold."""


class TestNetLogBlock:
    def _netlog(self):
        netlog = NetLog()
        url = "https://a.com/page"
        netlog.log(NetLogEventType.REQUEST_ALIVE, url, 80000)
        netlog.log(NetLogEventType.URL_REQUEST_START_JOB, url, 80000,
                   method="GET")
        netlog.log(NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST, url,
                   80012.5, headers={"X-Requested-With": "com.app"},
                   ranges=(0, 1), flags=[True, None])
        netlog.log(NetLogEventType.HTTP_TRANSACTION_READ_HEADERS, url,
                   80020.25, status=200)
        netlog.log(NetLogEventType.REQUEST_FAILED, "https://b.com/", 80030.0,
                   status=200.0, error="ERR_NAME_NOT_RESOLVED")
        return netlog

    def test_renders_the_per_event_dicts_with_their_types(self):
        netlog = self._netlog()
        rendered = list(NetLogBlock(netlog.events))
        expected = _per_event_dicts(netlog)
        assert rendered == expected
        assert len(NetLogBlock(netlog.events)) == len(expected)
        # Equality is not enough: 200 == 200.0 and (0, 1) != [0, 1]
        # would export differently.
        assert repr(rendered) == repr(expected)
        assert type(rendered[0]["time"]) is int
        assert type(rendered[2]["attributes"]["details"]["ranges"]) is tuple
        assert type(rendered[4]["attributes"]["details"]["status"]) is float

    def test_urls_and_equal_details_are_stored_once(self):
        netlog = NetLog()
        for path in ("/a", "/b"):
            for event_type in (NetLogEventType.REQUEST_ALIVE,
                               NetLogEventType.REQUEST_FINISHED):
                netlog.log(event_type, "https://a.com" + path, 1.0,
                           method="GET")
        fields = NetLogBlock(netlog.events)._fields
        assert fields[1] is fields[5] and fields[9] is fields[13]
        assert fields[1] is not netlog.events[1].url
        assert len({id(fields[index]) for index in (3, 7, 11, 15)}) == 1

    def test_rendering_is_fresh_each_pass(self):
        block = NetLogBlock(self._netlog().events)
        first = list(block)
        first[2]["attributes"]["details"]["headers"]["X-Requested-With"] = ""
        first[0]["attributes"]["url"] = ""
        assert list(block) == _per_event_dicts(self._netlog())

    def test_details_marshal_cannot_hold_are_kept_as_is(self):
        opaque = _Opaque()
        netlog = NetLog()
        netlog.log(NetLogEventType.REQUEST_ALIVE, "https://a.com/", 0.0,
                   payload=opaque)
        (event,) = NetLogBlock(netlog.events)
        assert event["attributes"]["details"] == {"payload": opaque}

    def test_pickles_with_its_shared_strings(self):
        block = NetLogBlock(self._netlog().events)
        rebuilt = pickle.loads(pickle.dumps(block))
        assert list(rebuilt) == list(block)
        assert rebuilt._fields[1] is rebuilt._fields[5]


class TestNetwork:
    def test_fetch_registered_host(self):
        network = Network(seed=1)
        network.register_host("example.com", lambda path: b"<html>hi</html>")
        response = network.fetch(Request("https://example.com/"))
        assert response.ok
        assert response.body == b"<html>hi</html>"
        assert response.elapsed_ms > 0

    def test_unknown_host_strict(self):
        with pytest.raises(DnsError):
            Network(seed=1).fetch(Request("https://nowhere.zz/"))

    def test_unknown_host_lenient(self):
        network = Network(seed=1, strict=False)
        response = network.fetch(Request("https://anywhere.zz/"))
        assert response.ok

    def test_netlog_lifecycle(self):
        network = Network(seed=1)
        network.register_host("example.com")
        netlog = NetLog()
        network.fetch(Request("https://example.com/"), netlog=netlog)
        types = [event.event_type for event in netlog.events]
        assert types[0] == NetLogEventType.REQUEST_ALIVE
        assert NetLogEventType.HTTP_TRANSACTION_SEND_REQUEST in types
        assert types[-1] == NetLogEventType.REQUEST_FINISHED

    def test_failed_dns_logged(self):
        network = Network(seed=1)
        netlog = NetLog()
        with pytest.raises(DnsError):
            network.fetch(Request("https://gone.zz/"), netlog=netlog)
        assert netlog.events[-1].event_type == NetLogEventType.REQUEST_FAILED

    def test_warm_connection_faster(self):
        """Pre-warmed origins skip DNS/TCP/TLS (the CT advantage)."""
        cold_network = Network(seed=5)
        cold_network.register_host("example.com")
        cold = cold_network.fetch(Request("https://example.com/"))

        warm_network = Network(seed=5)
        warm_network.register_host("example.com")
        warm_network.prewarm("https://example.com/")
        warm = warm_network.fetch(Request("https://example.com/"))
        assert warm.elapsed_ms < cold.elapsed_ms

    def test_second_fetch_reuses_connection(self):
        network = Network(seed=5)
        network.register_host("example.com")
        network.fetch(Request("https://example.com/"))
        assert network.is_warm("https://example.com/x")

    def test_webview_header_detection(self):
        request = Request("https://x.com/", headers={
            X_REQUESTED_WITH_HEADER: "com.facebook.katana",
        })
        assert request.headers.get(X_REQUESTED_WITH_HEADER) == (
            "com.facebook.katana")
        assert X_REQUESTED_WITH_HEADER not in Request("https://x.com/").headers

    def test_deterministic_with_seed(self):
        def timing(seed):
            network = Network(seed=seed)
            network.register_host("example.com")
            return network.fetch(Request("https://example.com/")).elapsed_ms

        assert timing(9) == timing(9)


class TestSites:
    def test_count_and_determinism(self):
        a = top_sites(100, seed=1)
        b = top_sites(100, seed=1)
        assert len(a) == 100
        assert [s.host for s in a] == [s.host for s in b]

    def test_categories_covered(self):
        categories = {s.category for s in top_sites(100)}
        assert SiteCategory.NEWS in categories
        assert SiteCategory.SEARCH in categories

    def test_rich_sites_have_more_resources(self):
        sites = top_sites(200)
        news = [s for s in sites if s.category == SiteCategory.NEWS]
        search = [s for s in sites if s.category == SiteCategory.SEARCH]
        mean = lambda xs: sum(xs) / len(xs)
        assert mean([s.subresource_count for s in news]) > mean(
            [s.subresource_count for s in search]
        )

    def test_first_party_resources_are_paths(self):
        site = top_sites(1)[0]
        for path in site.first_party_resources():
            assert path.startswith("/")


class TestPageLoad:
    def test_figure7_ordering(self):
        """CT < Chrome < external browser < WebView (Figure 7)."""
        model = PageLoadModel(seed=2)
        sites = top_sites(8)
        totals = {loader: 0.0 for loader in LoaderKind}
        for site in sites:
            for loader, mean_ms in model.compare(site, trials=3).items():
                totals[loader] += mean_ms
        assert (totals[LoaderKind.CUSTOM_TAB]
                < totals[LoaderKind.CHROME]
                < totals[LoaderKind.EXTERNAL_BROWSER]
                < totals[LoaderKind.WEBVIEW])

    def test_ct_roughly_twice_as_fast_as_webview(self):
        model = PageLoadModel(seed=2)
        sites = top_sites(8)
        ct_total = webview_total = 0.0
        for site in sites:
            means = model.compare(site, trials=3)
            ct_total += means[LoaderKind.CUSTOM_TAB]
            webview_total += means[LoaderKind.WEBVIEW]
        ratio = webview_total / ct_total
        assert 1.6 < ratio < 2.5

    def test_load_components_positive(self):
        model = PageLoadModel(seed=2)
        result = model.load(top_sites(1)[0], LoaderKind.WEBVIEW)
        assert result.startup_ms > 0
        assert result.network_ms > 0
        assert result.render_ms > 0
        assert result.total_ms == pytest.approx(
            result.startup_ms + result.network_ms + result.render_ms
        )

    def test_deterministic(self):
        model = PageLoadModel(seed=3)
        site = top_sites(1)[0]
        a = model.load(site, LoaderKind.CUSTOM_TAB, trial=1).total_ms
        b = model.load(site, LoaderKind.CUSTOM_TAB, trial=1).total_ms
        assert a == b
