"""Execution-layer configuration, resolved from arguments or environment.

``REPRO_MAX_WORKERS`` sizes the pool; the CI matrix sets it to exercise
the parallel path on every push. The backend is ``auto`` unless the
``backend`` argument pins one: ``auto`` picks processes only when more
than one worker is requested.
``REPRO_CACHE`` (on by default) gates the three content-addressed
tiers that memoize work shared across apps: the static pipeline's
class-facts tier (:mod:`repro.exec.cache`), the endpoint census's
propagation-summary tier (:mod:`repro.endpoints`) and the compiled-script
tier of :mod:`repro.web.jsengine`. Results, reports and metrics are
byte-identical either way; the CI matrix runs a leg with it off to prove
it. It does not gate the per-APK outcome tier or the longitudinal
``RunStore``, which incremental runs depend on.

The ``chunk_size``, ``backend``, ``window`` and ``max_attempts``
arguments (no environment variable) set how many tasks ride in one
dispatch (default 8), the backend, the streaming scheduler's
(:mod:`repro.exec.stream`) in-flight chunk window, default ``2 *
max_workers``, and the per-shard retry budget before a lost task is
quarantined into the drop taxonomy.
"""

import os

MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"
CACHE_ENV_VAR = "REPRO_CACHE"

BACKEND_AUTO = "auto"
BACKEND_INLINE = "inline"
BACKEND_PROCESS = "process"
_BACKENDS = (BACKEND_AUTO, BACKEND_INLINE, BACKEND_PROCESS)

DEFAULT_CHUNK_SIZE = 8

#: Retry budget for shards lost to worker death or poisoned tasks: a
#: lost chunk is split and re-queued until a single surviving task has
#: failed this many times, after which it is quarantined into the drop
#: taxonomy (see :mod:`repro.exec.stream`).
DEFAULT_MAX_ATTEMPTS = 3


class ExecConfigError(ValueError):
    """Raised for invalid execution-layer configuration."""


def _env_int(name, default):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ExecConfigError("%s must be an integer, got %r" % (name, raw))


def _env_flag(name, default):
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ExecConfigError("%s must be a boolean flag, got %r" % (name, raw))


class ExecConfig:
    """How a study shards its per-app work.

    ``max_workers`` bounds concurrency, ``chunk_size`` is how many tasks
    ride in one worker dispatch, and the in-flight window (submitted but
    unfinished chunks) defaults to ``2 * max_workers`` so arbitrarily
    large corpora never pile up in the executor's queue (``window=``
    overrides it). ``max_attempts`` bounds the :mod:`repro.exec.stream`
    scheduler's repair retries per lost shard. One worker runs
    in-process; more run on a process pool unless ``backend`` pins one.
    ``cache`` gates the content-addressed tiers (``REPRO_CACHE``; see
    the module docstring).
    """

    def __init__(self, max_workers=None, chunk_size=None, backend=None,
                 cache=None, window=None,
                 max_attempts=DEFAULT_MAX_ATTEMPTS):
        if max_workers is None:
            max_workers = _env_int(MAX_WORKERS_ENV_VAR, 1)
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK_SIZE
        if backend is None:
            backend = BACKEND_AUTO
        if cache is None:
            cache = _env_flag(CACHE_ENV_VAR, True)
        if max_workers < 1:
            raise ExecConfigError("max_workers must be >= 1, got %d"
                                  % max_workers)
        if chunk_size < 1:
            raise ExecConfigError("chunk_size must be >= 1, got %d"
                                  % chunk_size)
        if window is not None and window < 1:
            raise ExecConfigError("window must be >= 1, got %d" % window)
        if max_attempts < 1:
            raise ExecConfigError("max_attempts must be >= 1, got %d"
                                  % max_attempts)
        if backend not in _BACKENDS:
            raise ExecConfigError(
                "backend must be one of %s, got %r" % (_BACKENDS, backend)
            )
        self.max_workers = int(max_workers)
        self.chunk_size = int(chunk_size)
        self.backend = backend
        self.cache = bool(cache)
        self._window = int(window) if window is not None else None
        self.max_attempts = int(max_attempts)

    @property
    def resolved_backend(self):
        """The concrete backend ``auto`` resolves to for this config."""
        if self.backend != BACKEND_AUTO:
            return self.backend
        if self.max_workers > 1:
            return BACKEND_PROCESS
        return BACKEND_INLINE

    @property
    def window(self):
        """Maximum chunks submitted-but-unfinished at any moment.

        Defaults to ``2 * max_workers`` — enough submitted-ahead work to
        keep every worker busy between drain cycles — and can be pinned
        explicitly via the ``window`` argument.
        """
        if self._window is not None:
            return self._window
        return 2 * self.max_workers

    def __repr__(self):
        return "ExecConfig(workers=%d, chunk=%d, backend=%s, cache=%s)" % (
            self.max_workers, self.chunk_size, self.backend,
            "on" if self.cache else "off",
        )
