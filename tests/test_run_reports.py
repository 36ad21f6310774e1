"""Golden run reports: every subsystem's run report, byte for byte.

Each case runs small studies with every ``REPRO_*`` variable removed
(plus the case's own settings), a fresh :class:`~repro.obs.Obs` per
study and one inline worker unless the case says otherwise, and compares
the rendered ``run_report()`` markdown with its file under
``tests/golden/run_reports/``. Any change to a report's rows, labels,
order or numbers fails here.

Regenerate the golden files only on purpose::

    PYTHONPATH=src python -m tests.test_run_reports
"""

import os
import pathlib

import pytest

from repro.core import DynamicStudy, LongitudinalStudy, StaticStudy
from repro.corpus import CorpusConfig, generate_corpus
from repro.dynamic.apps import webview_iab_profiles
from repro.dynamic.manual_study import ManualStudy
from repro.endpoints import EndpointCensus
from repro.exec import ExecConfig
from repro.impact import ImpactCensus
from repro.obs import Obs

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "run_reports"


def _static(**kwargs):
    study = StaticStudy(universe_size=800, seed=11, obs=Obs(), **kwargs)
    study.run()
    return [study.run_report()]


def _crawl():
    study = DynamicStudy(site_count=3, obs=Obs(), max_workers=1)
    study.crawl_top_sites(apps=webview_iab_profiles()[:3])
    return [study.run_report()]


def _impact():
    census = ImpactCensus(apps=ManualStudy(seed=0).apps()[:40], seed=0,
                          obs=Obs(),
                          exec_config=ExecConfig(max_workers=1,
                                                 chunk_size=1))
    census.run()
    return [census.run_report()]


def _endpoints():
    # The second census finds every outcome in the corpus's cache.
    corpus = generate_corpus(CorpusConfig(universe_size=800, seed=11))
    reports = []
    for _ in ("cold", "warm"):
        census = EndpointCensus(corpus, obs=Obs(),
                                exec_config=ExecConfig(max_workers=1))
        census.run()
        reports.append(census.run_report())
    return reports


def _longitudinal():
    study = LongitudinalStudy(universe_size=800, obs=Obs(), max_workers=1)
    study.run_all()
    return [study.run_report()]


#: ``name: (extra environment, study runner)``; the runner returns the
#: case's reports in run order.
CASES = {
    "static_1w": ({}, lambda: _static(max_workers=1)),
    "static_2w_process": ({}, lambda: _static(max_workers=2,
                                              exec_backend="process")),
    "static_evictions": ({"REPRO_CACHE_MAX_ENTRIES": "5"},
                         lambda: _static(max_workers=1)),
    "crawl": ({}, _crawl),
    "impact": ({}, _impact),
    "endpoints_cold_warm": ({}, _endpoints),
    "longitudinal": ({}, _longitudinal),
}


def _set_env(setenv, delenv, extra):
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            delenv(key)
    for key, value in extra.items():
        setenv(key, value)


def _render(name):
    return "\n\n".join(CASES[name][1]()) + "\n"


def _golden_path(name):
    return GOLDEN_DIR / ("%s.md" % name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_report_matches_golden(name, monkeypatch):
    _set_env(monkeypatch.setenv, monkeypatch.delenv, CASES[name][0])
    expected = _golden_path(name).read_text(encoding="utf-8")
    assert _render(name) == expected


def main():
    """Rewrite every golden file from the current code."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        _set_env(os.environ.__setitem__, os.environ.__delitem__,
                 CASES[name][0])
        _golden_path(name).write_text(_render(name), encoding="utf-8")
        print("wrote %s" % _golden_path(name))


if __name__ == "__main__":
    main()
