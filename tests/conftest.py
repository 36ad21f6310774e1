"""Suite-wide fixtures.

With ``REPRO_CACHE_DIR`` set, the class-facts, endpoint-summary and
compiled-script caches read and write that one directory. Shared across
the suite, it would let every test start as warm as the tests before it
left the disk, and the tests that count cache hits, misses or time saved
would depend on their order and on what the directory held before. So
when the variable is set, each test gets an empty cache directory of its
own, and the process-wide caches that captured the old directory are
dropped, to be rebuilt on first use; fixtures shared by several tests
get one empty directory for the session. A test that compares several
cold runs asks for :func:`cold_disk_cache` too, so that no run starts
from what an earlier one wrote.
"""

import pytest

import repro.endpoints.census as endpoint_census
import repro.static_analysis.pipeline as pipeline
import repro.web.jsengine as jsengine
from repro.exec import CACHE_DIR_ENV_VAR
from repro.exec.cache import _env_cache_dir


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    if _env_cache_dir() is None:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV_VAR,
                     str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def cold_disk_cache(tmp_path_factory, monkeypatch):
    """Call before each run that must start with nothing on disk.

    With ``REPRO_CACHE_DIR`` set, points it at a new empty directory
    (not under the test's own ``tmp_path``, which some tests list);
    otherwise there is no disk layer and the call does nothing.
    """
    def fresh():
        if _env_cache_dir() is not None:
            monkeypatch.setenv(CACHE_DIR_ENV_VAR,
                               str(tmp_path_factory.mktemp("repro-cache")))
    return fresh


@pytest.fixture(autouse=True)
def _fresh_cache_dir(cold_disk_cache, monkeypatch):
    if _env_cache_dir() is None:
        return
    cold_disk_cache()
    monkeypatch.setattr(jsengine, "_DEFAULT_SCRIPT_CACHE", None)
    monkeypatch.setattr(pipeline, "_WORKER_FACTS", None)
    monkeypatch.setattr(endpoint_census, "_WORKER_SUMMARIES", None)
