"""Edge cases and failure injection across the substrates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import ZipReader, ZipWriter
from repro.apk.container import write_apk, read_apk
from repro.android.manifest import AndroidManifest
from repro.corpus import CorpusConfig, generate_corpus
from repro.dex import DexFile, serialize_dex, deserialize_dex
from repro.dynamic.crawler import AdbCrawler
from repro.dynamic.device import Device
from repro.dynamic.manual_study import ManualStudy
from repro.dynamic.webview_runtime import WebViewRuntime
from repro.errors import BrokenApkError, NetworkError
from repro.netstack.network import Network, Request
from repro.static_analysis import StaticAnalysisPipeline
from repro.web.htmlparser import parse_html
from repro.web.jsengine import JsInterpreter
from repro.web.urls import parse_url


class TestZipEdgeCases:
    def test_empty_archive_roundtrip(self):
        reader = ZipReader(ZipWriter().getvalue())
        assert reader.namelist() == []

    def test_empty_file_entry(self):
        writer = ZipWriter()
        writer.add("empty.txt", b"")
        assert ZipReader(writer.getvalue()).read("empty.txt") == b""

    def test_large_entry(self):
        blob = bytes(range(256)) * 4096  # 1 MiB
        writer = ZipWriter()
        writer.add("big.bin", blob)
        assert ZipReader(writer.getvalue()).read("big.bin") == blob

    def test_unicode_names(self):
        writer = ZipWriter()
        writer.add("res/值/いち.txt", b"x")
        reader = ZipReader(writer.getvalue())
        assert reader.read("res/值/いち.txt") == b"x"

    def test_duplicate_names_last_wins_on_read(self):
        writer = ZipWriter()
        writer.add("a.txt", b"first")
        writer.add("a.txt", b"second")
        reader = ZipReader(writer.getvalue())
        assert reader.read("a.txt") in (b"first", b"second")


class TestDexEdgeCases:
    def test_empty_dex_roundtrip(self):
        assert len(deserialize_dex(serialize_dex(DexFile()))) == 0

    def test_apk_with_empty_dex(self):
        manifest = AndroidManifest("com.empty.app")
        data = write_apk(manifest, DexFile())
        apk = read_apk(data)
        assert len(apk.dex) == 0


class TestBrokenApkVariants:
    def make_good(self):
        manifest = AndroidManifest("com.x.app")
        return write_apk(manifest, DexFile())

    def test_truncated_half(self):
        data = self.make_good()
        with pytest.raises(BrokenApkError):
            read_apk(data[: len(data) // 2])

    def test_truncated_tail(self):
        data = self.make_good()
        with pytest.raises(BrokenApkError):
            read_apk(data[:-10])

    def test_xor_scrambled(self):
        data = bytes(b ^ 0x5A for b in self.make_good())
        with pytest.raises(BrokenApkError):
            read_apk(data)

    def test_empty_bytes(self):
        with pytest.raises(BrokenApkError):
            read_apk(b"")

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_random_bytes_never_crash(self, junk):
        """Arbitrary garbage either parses or raises BrokenApkError —
        never an unhandled exception (the 242-broken-APKs path)."""
        try:
            read_apk(junk)
        except BrokenApkError:
            pass


class TestNetworkEdgeCases:
    def test_http_url_without_tls_phase(self):
        network = Network(seed=3)
        network.register_host("plain.example")
        https = Network(seed=3)
        https.register_host("plain.example")
        insecure = network.fetch(Request("http://plain.example/"))
        secure = https.fetch(Request("https://plain.example/"))
        assert insecure.elapsed_ms < secure.elapsed_ms

    def test_invalid_url_rejected(self):
        with pytest.raises(NetworkError):
            Request("not-a-url")

    def test_webview_load_of_unresolvable_host_degrades(self):
        network = Network(seed=0)  # strict: nothing registered
        device = Device(network=network)
        runtime = WebViewRuntime("com.x", device)
        runtime.loadUrl("https://unresolvable.zz/")
        # The WebView shows an empty page rather than crashing the app.
        assert runtime.current_url == "https://unresolvable.zz/"
        assert runtime.document is not None


class TestHtmlRobustness:
    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_text_without_tags_never_crashes(self, text):
        if "<" in text:
            return
        document = parse_html("<html><body>%s</body></html>" % text)
        assert document.body is not None

    def test_deeply_nested(self):
        html = "<html><body>" + "<div>" * 120 + "</div>" * 120
        html += "</body></html>"
        document = parse_html(html)
        assert len(document.get_elements_by_tag_name("div")) == 120

    def test_attributes_with_angle_lookalikes(self):
        document = parse_html(
            '<html><body><a title="a > b" href="/x">t</a></body></html>'
        )
        anchor = document.body.children[0]
        assert anchor.get_attribute("title") == "a > b"


class TestJsRobustness:
    @given(st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80,
    ))
    @settings(max_examples=60, deadline=None)
    def test_string_literal_roundtrip(self, value):
        """Any string survives JSON.stringify->source->execution."""
        from repro.web.jsengine import json_stringify, JsInterpreter

        literal = json_stringify(value)
        interpreter = JsInterpreter()
        interpreter.run("__result = %s;" % literal)
        assert interpreter.global_scope.lookup("__result") == value

    def test_deep_recursion_budgeted(self):
        source = """
        function recurse(n) { if (n <= 0) { return 0; } return recurse(n - 1); }
        recurse(200);
        """
        JsInterpreter().run(source)  # must complete within the step budget

    def test_nan_comparisons(self):
        interpreter = JsInterpreter()
        interpreter.run("__r = (0/0) === (0/0);")
        assert interpreter.global_scope.lookup("__r") is False


class TestUrlProperties:
    @given(
        st.sampled_from(["http", "https"]),
        st.from_regex(r"[a-z][a-z0-9]{0,8}(\.[a-z]{2,6}){1,2}",
                      fullmatch=True),
        st.from_regex(r"(/[a-z0-9._-]{0,10}){0,3}", fullmatch=True),
    )
    @settings(max_examples=80, deadline=None)
    def test_str_parse_fixpoint(self, scheme, host, path):
        url = parse_url("%s://%s%s" % (scheme, host, path or "/"))
        assert parse_url(str(url)) == url


class TestScaleEdgeCases:
    def test_tiny_corpus_still_runs(self):
        corpus = generate_corpus(CorpusConfig(universe_size=40, seed=2))
        result = StaticAnalysisPipeline(corpus).run()
        assert result.androzoo_play_apps == 40

    def test_max_apps_cap(self):
        corpus = generate_corpus(CorpusConfig(universe_size=3000, seed=2))
        result = StaticAnalysisPipeline(corpus).run(max_apps=10)
        assert len(result.analyses) <= 10

    def test_manual_study_small_population(self):
        study = ManualStudy(total_apps=100, seed=1)
        tally = ManualStudy.tally(study.run())
        total = (tally["Users can post links."]
                 + tally["Users can not post links."]
                 + tally["Browser Apps."]
                 + tally["Could not classify app."])
        assert total == 100

    def test_crawler_zero_sites(self):
        from repro.dynamic.apps import real_app_profiles

        profiles = [p for p in real_app_profiles() if p.name == "Kik"]
        result = AdbCrawler(profiles, sites=[], seed=1).crawl()
        assert result.visits == []

    def test_progress_callback_fires(self):
        corpus = generate_corpus(CorpusConfig(universe_size=40_000, seed=6))
        ticks = []
        StaticAnalysisPipeline(corpus).run(
            max_apps=400, progress=lambda done, total: ticks.append(done)
        )
        assert ticks and ticks[0] == 200
