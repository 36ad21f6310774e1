"""Shared benchmark-summary emitter.

Every paper benchmark (``bench_table*``, ``bench_fig*``,
``bench_ablations``, ``bench_ext_partial_ct``) funnels its
machine-readable summary through :func:`emit_bench`, which

- stamps a ``schema_version`` (bumped on layout changes, so downstream
  tooling can reject payloads it does not understand) plus the
  benchmark's name and the working tree's ``git describe``;
- writes ``BENCH_<name>.json`` next to the benchmarks, sorted and
  newline-terminated so the checked-in copies diff cleanly (the paper
  gate fails on any difference but the ``git`` stamp);
- best-effort registers the payload into the persistent telemetry store
  when ``REPRO_OBS_DB`` is set — giving benchmark history the same run
  ledger the studies get, queryable via ``python -m repro.obs.store``.

:func:`bench_json_fixture` builds the module-scope pytest fixture the
benchmark modules share: tests mutate the yielded dict, and the summary
is emitted once when the module's tests finish.
"""

import json
import os

import pytest

from repro.obs.store import TelemetryStore, git_describe

#: Bump when the emitted payload layout changes incompatibly.
SCHEMA_VERSION = 1

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def emit_bench(name, data):
    """Write ``BENCH_<name>.json``; returns the enriched payload.

    The telemetry registration is strictly best-effort: a missing,
    unwritable or corrupt ``REPRO_OBS_DB`` never fails a benchmark (the
    store itself degrades to a logged warning; a bad path raises
    ``ValueError`` from validation, also swallowed here).
    """
    payload = dict(data)
    payload["schema_version"] = SCHEMA_VERSION
    payload["benchmark"] = name
    payload.setdefault("git", git_describe())
    path = os.path.join(_BENCH_DIR, "BENCH_%s.json" % name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    try:
        store = TelemetryStore.from_env()
    except ValueError:
        store = None
    if store is not None:
        store.record_bench(name, payload)
    return payload


def bench_json_fixture(name, **base):
    """A module-scope fixture dict emitted via :func:`emit_bench`.

    Usage in a benchmark module::

        bench_json = bench_json_fixture("ablations", universe_size=25_000)

    Extra keyword arguments seed the dict.
    """

    @pytest.fixture(scope="module", name="bench_json")
    def fixture():
        data = dict(base)
        yield data
        emit_bench(name, data)

    return fixture
