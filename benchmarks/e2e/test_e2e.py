"""Self-test of bench_e2e at tiny sizes.

Not part of tier-1 (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs untraced and traced through ``run.run_workload``
with tiny sizes passed as arguments, one repetition per unit.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

SEED = 5
SECONDS = 1.0

_PIPELINE = {"universe": 900, "static_apps": 6, "sites": 2,
             "impact_apps": 3, "endpoint_apps": 6, "label_queries": 3,
             "query_rounds": 1}

TINY = {
    "paper-cold-1w": _PIPELINE,
    "paper-cold-2w": _PIPELINE,
    "longitudinal-delta": {"universe": 1500, "max_apps": 1500,
                           "timelines": 1, "label_queries": 3,
                           "query_rounds": 1},
    "serve": dict(_PIPELINE, batch_share=0.25, read_share=0.25,
                  ingest_rate=4.0),
}


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_tiny(name, out_dir, traced=False):
    return run.run_workload(name, SEED, SECONDS, traced, str(out_dir),
                            sizes=TINY[name], min_units=1)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload, untraced then traced, in one output directory."""
    out_dir = tmp_path_factory.mktemp("e2e")
    names = [w["name"] for w in benchmark_json()["workloads"]]
    return out_dir, {
        (name, traced): run_tiny(name, out_dir, traced)
        for name in names for traced in (False, True)
    }


@pytest.mark.parametrize("section,traced", [("end_to_end", False),
                                            ("per_layer", True)])
def test_every_metric_is_emitted_with_its_unit(results, section, traced):
    _, runs = results
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    for workload in benchmark_json()["workloads"]:
        metrics, _, attempted = runs[(workload["name"], traced)]
        assert {name: entry["unit"] for name, entry in metrics.items()} \
            == declared, workload["name"]
        assert attempted >= 1
        if not traced:
            assert all(entry["value"] > 0 for entry in metrics.values())


def test_benchmark_json_matches_the_runner():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, catalogue in (("end_to_end", run.END_TO_END),
                               ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec[section]} == catalogue


def test_traced_self_times_sum_to_the_traced_wall(results):
    _, runs = results
    metrics, raw, _ = runs[("paper-cold-1w", True)]
    wall = raw["trace_wall_s"]
    self_total = sum(entry["value"] for name, entry in metrics.items()
                     if name.endswith(".self_s"))
    unattributed = metrics["trace.unattributed_share"]["value"] * wall
    assert self_total + unattributed == pytest.approx(wall, rel=1e-9)
    assert metrics["static_analysis.analyze_apk_bytes.calls"]["value"] > 0


def test_two_worker_run_reports_measured_and_simulated(results):
    _, runs = results
    metrics, _, _ = runs[("paper-cold-2w", True)]
    for study in workloads.STUDIES:
        assert metrics["exec.%s.measured_s" % study]["value"] > 0
        assert metrics["exec.%s.simulated_s" % study]["value"] > 0


def test_digest_gate_fails_the_run(results, tmp_path):
    out_dir, _ = results
    records = os.path.join(str(out_dir), "digests")
    (record,) = os.listdir(records)
    with open(os.path.join(records, record)) as handle:
        seen = json.load(handle)
    seen["digests"]["static"] = "0" * 64
    tampered = tmp_path / "digests"
    tampered.mkdir()
    (tampered / record).write_text(json.dumps(seen))
    with pytest.raises(run.BenchError, match="outputs differ"):
        run_tiny("paper-cold-1w", tmp_path)


def test_served_answer_gate_fails_on_a_wrong_answer():
    expected = {"funnel": {"found_on_play": 3}}
    workloads.check_answer(expected, "funnel", None, {"found_on_play": 3})
    with pytest.raises(workloads.GateError):
        workloads.check_answer(expected, "funnel", None,
                               {"found_on_play": 4})


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(trace, "TARGETS", trace.TARGETS + (
        ("static_analysis.gone", "repro.static_analysis.pipeline",
         "renamed_function"),))
    with pytest.raises(trace.TraceError, match="renamed_function"):
        trace.install(trace.Recorder())
