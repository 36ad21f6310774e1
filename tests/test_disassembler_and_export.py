"""Tests for the research-data export."""

import json

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.static_analysis import StaticAnalysisPipeline
from repro.static_analysis.export import (
    export_calls_csv,
    export_study_csv,
    export_study_json,
    load_study_json,
)


@pytest.fixture(scope="module")
def study_result():
    corpus = generate_corpus(CorpusConfig(universe_size=4000, seed=9))
    return StaticAnalysisPipeline(corpus).run()


class TestExport:
    def test_json_roundtrip(self, study_result):
        text = export_study_json(study_result)
        document = load_study_json(text)
        assert document["funnel"]["androzoo_play_apps"] == 4000
        assert len(document["apps"]) == study_result.analyzed

    def test_json_records_have_sdks(self, study_result):
        document = load_study_json(export_study_json(study_result))
        any_with_sdks = [
            app for app in document["apps"] if app["webview_sdks"]
        ]
        assert any_with_sdks

    def test_json_deterministic(self, study_result):
        assert export_study_json(study_result) == export_study_json(
            study_result
        )

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            load_study_json(json.dumps({"schema": "other/9"}))

    def test_csv_header_and_rows(self, study_result):
        text = export_study_csv(study_result)
        lines = text.strip().splitlines()
        assert lines[0].startswith("package,category,installs")
        assert len(lines) == study_result.analyzed + 1

    def test_calls_csv_counting_only(self, study_result):
        counting = export_calls_csv(study_result, counting_only=True)
        everything = export_calls_csv(study_result, counting_only=False)
        assert len(everything.splitlines()) >= len(counting.splitlines())
        assert "webview" in counting
