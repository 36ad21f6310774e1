"""Persistent telemetry store: run history in one SQLite file.

Every finished study run — static, dynamic, longitudinal snapshot, or
benchmark — can persist its observability state (span forest, metrics
registry snapshot, benchmark payloads) into a single SQLite database
named by the ``REPRO_OBS_DB`` environment variable. The store is the
substrate for the analyses in :mod:`repro.obs.perf`: critical-path
profiles and flamegraphs of any historical run.

Design points:

- **Append-only.** Rows are only ever inserted; a run is immutable once
  recorded. "Latest" queries order by the monotonically increasing
  ``seq`` rowid.
- **Keyed.** Runs carry ``(kind, corpus fingerprint, options token,
  git describe)``; the ``runs_by_key`` index orders each
  kind/corpus/options history by ``seq``.
- **Shared persistence rules.** How the file opens, upgrades, is written
  and is read — WAL, concurrent writers, corrupt files reading as
  absent, failed writes as warnings — is :mod:`repro.persist`'s; this
  module holds only the schema, the two writers and the queries.

The module doubles as a CLI::

    python -m repro.obs.store list [--kind static]
    python -m repro.obs.store show static-000003
    python -m repro.obs.store flamegraph static-000003 --out run.folded
"""

import argparse
import functools
import json
import os
import subprocess
import sys

from repro.obs import perf
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span
from repro.persist import SqliteStore, env_path

#: Environment variable naming the telemetry database file.
OBS_DB_ENV_VAR = "REPRO_OBS_DB"

#: The ``repro`` package directory, whose files decide a ``-dirty`` stamp.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Bumped on any schema change; :mod:`repro.persist` upgrades older files.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT UNIQUE,
    kind TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    corpus TEXT NOT NULL DEFAULT '',
    options TEXT NOT NULL DEFAULT '',
    git TEXT NOT NULL DEFAULT '',
    items INTEGER NOT NULL DEFAULT 0,
    elapsed REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS traces (
    run_seq INTEGER NOT NULL,
    position INTEGER NOT NULL,
    tree TEXT NOT NULL,
    PRIMARY KEY (run_seq, position)
);
CREATE TABLE IF NOT EXISTS registries (
    run_seq INTEGER PRIMARY KEY,
    snapshot TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS bench_payloads (
    run_seq INTEGER NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_seq, name)
);
CREATE INDEX IF NOT EXISTS runs_by_key
    ON runs (kind, corpus, options, seq);
"""


def env_db_path():
    """The validated ``REPRO_OBS_DB`` value, or None when unset/blank.

    The variable must name a *file* path whose parent directory exists
    or is creatable; pointing it at an existing directory is the most
    common misconfiguration and gets a specific message.
    """
    return env_path(OBS_DB_ENV_VAR, TelemetryStore.FILE_NAME)


def git_describe(cwd=None):
    """``git describe --always`` of the code's checkout, or ''.

    ``cwd`` defaults to the ``repro`` package directory. The stamp gets
    ``-dirty`` only when files under ``cwd`` differ from HEAD, so edits
    elsewhere in the checkout (docs, benchmark payloads) do not mark
    the code that produced a run as modified. The default stamp names
    the code this process imported, so it is computed once per process.
    """
    if cwd is None:
        return _package_stamp()
    try:
        described = subprocess.run(
            ["git", "describe", "--always"],
            cwd=cwd, capture_output=True, timeout=10,
        )
        if described.returncode != 0:
            return ""
        changed = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "."],
            cwd=cwd, capture_output=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    stamp = described.stdout.decode("utf-8", "replace").strip()
    return stamp + "-dirty" if changed.returncode == 1 else stamp


@functools.lru_cache(maxsize=None)
def _package_stamp():
    return git_describe(_PACKAGE_DIR)


class TelemetryStore(SqliteStore):
    """Append-only SQLite sink for finished runs' observability state."""

    NOUN = "telemetry"
    ENV_VAR = OBS_DB_ENV_VAR
    FILE_NAME = "telemetry.db"
    SCHEMA = _SCHEMA
    SCHEMA_VERSION = SCHEMA_VERSION
    HEAD_TABLE = "runs"
    ID_COLUMN = "run_id"
    log = get_logger("obs.store")

    # -- writes --------------------------------------------------------------

    def record_run(self, obs, kind, label="", corpus="", options="",
                   git=None, items=0, root_span="run"):
        """Persist one finished run's bundle; returns run_id or None.

        Failure to write is logged and swallowed — the telemetry store
        observes runs, it must never fail one.
        """
        if git is None:
            git = git_describe()
        trees = [json.dumps(root.to_dict(), sort_keys=True)
                 for root in obs.tracer.roots]
        snapshot = json.dumps(obs.registry.as_dict(), sort_keys=True)
        elapsed = sum(
            span.duration for span in obs.tracer.iter_spans()
            if span.name == root_span
        )

        def write(conn, seq):
            conn.executemany(
                "INSERT INTO traces (run_seq, position, tree)"
                " VALUES (?, ?, ?)",
                [(seq, position, tree) for position, tree
                 in enumerate(trees)],
            )
            conn.execute(
                "INSERT INTO registries (run_seq, snapshot) VALUES (?, ?)",
                (seq, snapshot),
            )

        return self._append(
            {"kind": kind, "label": label, "corpus": corpus,
             "options": options, "git": git, "items": items,
             "elapsed": elapsed}, write,
        )

    def record_bench(self, name, payload, git=None):
        """Persist one benchmark's JSON payload; returns run_id or None."""
        if git is None:
            git = git_describe()
        text = json.dumps(payload, sort_keys=True)

        def write(conn, seq):
            conn.execute(
                "INSERT INTO bench_payloads (run_seq, name, payload)"
                " VALUES (?, ?, ?)", (seq, name, text),
            )

        return self._append({"kind": "bench", "label": name, "git": git},
                            write)

    # -- reads (corrupt database => empty results) ---------------------------

    def list_runs(self, kind=None):
        """Run metadata dicts, oldest first; optionally one kind only."""
        sql = ("SELECT run_id, kind, label, corpus, options, git, items,"
               " elapsed FROM runs")
        params = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " ORDER BY seq"
        return [
            {"run_id": row[0], "kind": row[1], "label": row[2],
             "corpus": row[3], "options": row[4], "git": row[5],
             "items": row[6], "elapsed": row[7]}
            for row in self._query(sql, params)
        ]

    def get_run(self, run_id):
        """One run's metadata dict, or None."""
        rows = self._query(
            "SELECT run_id, kind, label, corpus, options, git, items,"
            " elapsed FROM runs WHERE run_id = ?", (run_id,),
        )
        if not rows:
            return None
        row = rows[0]
        return {"run_id": row[0], "kind": row[1], "label": row[2],
                "corpus": row[3], "options": row[4], "git": row[5],
                "items": row[6], "elapsed": row[7]}

    def load_spans(self, run_id):
        """The run's span forest, rebuilt as live :class:`Span` trees."""
        rows = self._query(
            "SELECT tree FROM traces WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?) ORDER BY position",
            (run_id,),
        )
        roots = []
        for (tree,) in rows:
            try:
                roots.append(Span.from_dict(json.loads(tree)))
            except (ValueError, KeyError, TypeError):
                continue
        return roots

    def load_registry(self, run_id):
        """The run's metrics registry snapshot, or None."""
        rows = self._query(
            "SELECT snapshot FROM registries WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?)", (run_id,),
        )
        if not rows:
            return None
        try:
            return MetricsRegistry.from_dict(json.loads(rows[0][0]))
        except (ValueError, KeyError, TypeError):
            return None

    def load_bench(self, run_id):
        """``{name: payload}`` for a bench run's recorded payloads."""
        rows = self._query(
            "SELECT name, payload FROM bench_payloads WHERE run_seq ="
            " (SELECT seq FROM runs WHERE run_id = ?)", (run_id,),
        )
        out = {}
        for name, payload in rows:
            try:
                out[name] = json.loads(payload)
            except ValueError:
                continue
        return out

    def last_runs(self, kind, limit=10):
        """run_ids of the newest runs of ``kind``, newest first."""
        return [row[0] for row in self._query(
            "SELECT run_id FROM runs WHERE kind = ?"
            " ORDER BY seq DESC LIMIT ?", (kind, int(limit)),
        )]


# -- CLI ----------------------------------------------------------------------


def _cmd_list(store, args):
    runs = store.list_runs(kind=args.kind)
    if not runs:
        print("no runs recorded")
        return 0
    for run in runs:
        print("%-18s %-12s items=%-7d elapsed=%-10.3f %s %s" % (
            run["run_id"], run["kind"], run["items"], run["elapsed"],
            run["git"] or "-", run["label"],
        ))
    return 0


def _cmd_show(store, args):
    meta = store.get_run(args.run_id)
    if meta is None:
        print("unknown run %r" % args.run_id, file=sys.stderr)
        return 1
    print(json.dumps(meta, indent=2, sort_keys=True))
    roots = store.load_spans(args.run_id)
    if roots:
        prof = perf.profile(roots)
        print("\ncritical path: %.3f clock s" % prof.critical_length)
        for stage in prof.ordered():
            print("  %-24s self=%-8.3f calls=%-5d cp-share=%.1f%%" % (
                stage.name, stage.self_time, stage.calls,
                100.0 * prof.path_share(stage.name),
            ))
    payloads = store.load_bench(args.run_id)
    for name in sorted(payloads):
        print("\nbench payload %s:" % name)
        print(json.dumps(payloads[name], indent=2, sort_keys=True))
    return 0


def _cmd_flamegraph(store, args):
    run_id = args.run_id
    if run_id is None:
        if args.kind:
            runs = store.last_runs(args.kind, limit=1)
            missing = "no runs of kind %r recorded" % args.kind
        else:
            runs = [r["run_id"] for r in store.list_runs()][-1:]
            missing = "no runs recorded"
        if not runs:
            print(missing, file=sys.stderr)
            return 1
        run_id = runs[0]
    roots = store.load_spans(run_id)
    if not roots:
        print("run %r has no recorded spans" % run_id, file=sys.stderr)
        return 1
    folded = perf.flamegraph(roots)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(folded)
        print("wrote %s (%d stacks)" % (args.out, len(folded.splitlines())))
    else:
        sys.stdout.write(folded)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.store",
        description="Inspect the persistent telemetry store.",
    )
    parser.add_argument("--db", help="database file (default: $%s)"
                        % OBS_DB_ENV_VAR)
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("list", help="list recorded runs")
    cmd.add_argument("--kind", help="only runs of this kind")

    cmd = commands.add_parser("show", help="dump one run's profile")
    cmd.add_argument("run_id")

    cmd = commands.add_parser(
        "flamegraph", help="emit collapsed-stack text for one run"
    )
    cmd.add_argument("run_id", nargs="?", default=None,
                     help="run to fold (default: newest run)")
    cmd.add_argument("--kind", help="with no run_id: newest of this kind")
    cmd.add_argument("--out", help="write to a file instead of stdout")

    args = parser.parse_args(argv)
    store = TelemetryStore.from_cli(args.db)
    handler = {
        "list": _cmd_list,
        "show": _cmd_show,
        "flamegraph": _cmd_flamegraph,
    }[args.command]
    return handler(store, args)


if __name__ == "__main__":
    sys.exit(main())
