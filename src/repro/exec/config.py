"""Execution-layer configuration, resolved from arguments or environment.

``REPRO_MAX_WORKERS`` and ``REPRO_CHUNK_SIZE`` size the pool; the CI
matrix sets the former to exercise the parallel path on every push.
``REPRO_EXEC_BACKEND`` can pin a backend explicitly — ``auto`` (the
default) picks processes only when more than one worker is requested.
``REPRO_CLASS_CACHE`` toggles the content-addressed class-facts cache
(on by default); the CI matrix runs a leg with it off to prove results
are byte-identical either way. ``REPRO_SCRIPT_CACHE`` is the dynamic
pipeline's analogue: it toggles the compiled-script cache in
:mod:`repro.web.jsengine` (also on by default, also exercised off in CI).
``REPRO_ENDPOINT_CACHE`` toggles the endpoint census's propagation-summary
and outcome reuse (:mod:`repro.endpoints`), following the same
on-by-default / byte-identical-off contract.

``REPRO_TAINT`` turns on the taint-flow instrumentation in the JS
evaluator (off by default so uninstrumented runs stay byte-identical;
see :mod:`repro.impact`).

``REPRO_EXEC_WINDOW`` overrides the in-flight chunk window (default
``2 * max_workers``) of the streaming scheduler
(:mod:`repro.exec.stream`), and ``REPRO_EXEC_RETRIES`` is the per-shard
retry budget before a lost task is quarantined into the drop taxonomy.
"""

import os

MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"
CHUNK_SIZE_ENV_VAR = "REPRO_CHUNK_SIZE"
BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"
CLASS_CACHE_ENV_VAR = "REPRO_CLASS_CACHE"
SCRIPT_CACHE_ENV_VAR = "REPRO_SCRIPT_CACHE"
ENDPOINT_CACHE_ENV_VAR = "REPRO_ENDPOINT_CACHE"
TAINT_ENV_VAR = "REPRO_TAINT"
WINDOW_ENV_VAR = "REPRO_EXEC_WINDOW"
RETRIES_ENV_VAR = "REPRO_EXEC_RETRIES"

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
    large corpora never pile up in the executor's queue
    (``REPRO_EXEC_WINDOW`` / ``window=`` override it). ``max_attempts``
    bounds the :mod:`repro.exec.stream` scheduler's repair retries per
    lost shard. One worker runs in-process; more run on a process pool
    unless ``backend`` pins one.
    """

    def __init__(self, max_workers=None, chunk_size=None, backend=None,
                 class_cache=None, script_cache=None, endpoint_cache=None,
                 window=None, max_attempts=None):
        if max_workers is None:
            max_workers = _env_int(MAX_WORKERS_ENV_VAR, 1)
        if chunk_size is None:
            chunk_size = _env_int(CHUNK_SIZE_ENV_VAR, DEFAULT_CHUNK_SIZE)
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR, BACKEND_AUTO)
        if class_cache is None:
            class_cache = _env_flag(CLASS_CACHE_ENV_VAR, True)
        if script_cache is None:
            script_cache = _env_flag(SCRIPT_CACHE_ENV_VAR, True)
        if endpoint_cache is None:
            endpoint_cache = _env_flag(ENDPOINT_CACHE_ENV_VAR, True)
        if window is None:
            window = _env_int(WINDOW_ENV_VAR, None)
        if max_attempts is None:
            max_attempts = _env_int(RETRIES_ENV_VAR, DEFAULT_MAX_ATTEMPTS)
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
        self.class_cache = bool(class_cache)
        self.script_cache = bool(script_cache)
        self.endpoint_cache = bool(endpoint_cache)
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
        explicitly via ``REPRO_EXEC_WINDOW`` or the ``window`` argument.
        """
        if self._window is not None:
            return self._window
        return 2 * self.max_workers

    def __repr__(self):
        return "ExecConfig(workers=%d, chunk=%d, backend=%s, class_cache=%s)" % (
            self.max_workers, self.chunk_size, self.backend,
            "on" if self.class_cache else "off",
        )
