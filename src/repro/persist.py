"""One persistence core: how every store opens, upgrades, writes, reads.

Three stores keep state between runs: the results database
(:mod:`repro.results.store`, which also holds the run history), the
longitudinal ``RunStore`` and the ``ClassFactsCache`` disk layer. Each
keeps only its own layout; the rules they share live here.

A SQLite store subclasses :class:`SqliteStore`. Connections use WAL and a
:data:`BUSY_TIMEOUT_S` busy timeout and live for one write or one read
scope, so none crosses a fork or a thread. A new file gets the schema,
an older version is upgraded in place (every change so far only added
tables and indexes, so re-running the ``IF NOT EXISTS`` script and
stamping the version is the whole upgrade) and a newer one is refused
with ``ValueError``. Each write is one ``BEGIN IMMEDIATE`` transaction
that stamps a ``<kind>-<seq>`` id, so concurrent writers take turns and
a killed writer leaves no partial row. A store must never fail the run
it records: a file SQLite cannot open logs one warning and then reads as
absent, and a failed write logs a warning and returns None.

Whole files go through :func:`atomic_write` (temp file + rename: a kill
leaves the old file or the new one) and :func:`load_pickle` (a missing
or corrupt pickle reads as None). Neither syncs to disk; a lost file
only costs a recomputation.
"""

import contextlib
import os
import pickle
import sqlite3
import threading

#: Seconds a connection waits for another writer's lock before failing.
BUSY_TIMEOUT_S = 5.0

#: The version table every SQLite store carries.
_VERSION_TABLE = """
CREATE TABLE IF NOT EXISTS schema_info (
    version INTEGER NOT NULL
);
"""

#: What a corrupt, truncated or foreign pickle can raise while loading.
_PICKLE_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                  ImportError, IndexError, ValueError)


def env_path(var, file_name):
    """The validated database path in ``var``, or None when unset/blank.

    The path is checked as :func:`checked_path` checks it.
    """
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return None
    return checked_path(raw, var + "=", file_name)


def checked_path(raw, source, file_name):
    """``raw`` stripped, once it names a usable database file.

    The path must name a *file* whose parent directory exists or is
    creatable. Naming an existing directory is the most common
    misconfiguration, and its message suggests ``<dir>/<file_name>``.
    ``source`` prefixes the path in messages: ``"REPRO_RESULTS_DB="``
    for a variable, ``"--db "`` for a CLI flag.
    """
    path = raw.strip()
    if os.path.isdir(path):
        raise ValueError(
            "%s%r is a directory; it must name a database file, e.g. "
            "%s%s" % (source, raw, source, os.path.join(path, file_name))
        )
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise ValueError(
                "%s%r names a file in an uncreatable directory (%s)"
                % (source, raw, exc)
            )
    return path


class SqliteStore:
    """An append-only SQLite store; subclasses add schema, writers, queries.

    A subclass sets the class attributes below. Each write appends one
    row to a head table (``seq`` rowid, ``kind`` and an id column).
    """

    #: What the store holds, for messages ("results").
    NOUN = ""
    #: Environment variable naming the database file.
    ENV_VAR = ""
    #: File name suggested when ``ENV_VAR`` names a directory.
    FILE_NAME = ""
    #: ``CREATE ... IF NOT EXISTS`` script of the store's tables.
    SCHEMA = ""
    SCHEMA_VERSION = 1
    #: The store's :class:`~repro.obs.logs.StructuredLogger`.
    log = None

    def __init__(self, path):
        if not path or not str(path).strip():
            raise ValueError(
                "%s needs a database file path; set the %s environment "
                "variable or pass one explicitly"
                % (type(self).__name__, self.ENV_VAR)
            )
        self.path = str(path)
        # The calling thread's open read scope: its connection, or None
        # when the database could not be opened (reads as absent).
        self._reader = threading.local()
        self._open()

    @classmethod
    def from_env(cls):
        """A store for the file ``ENV_VAR`` names, or None when unset."""
        path = env_path(cls.ENV_VAR, cls.FILE_NAME)
        return None if path is None else cls(path)

    @classmethod
    def from_cli(cls, db):
        """The store a CLI's ``--db`` names, else ``ENV_VAR``'s; or exit.

        ``--db`` is checked by the variable's rule. A bad path or a
        newer schema exits with its message.
        """
        try:
            store = (cls(checked_path(db, "--db ", cls.FILE_NAME)) if db
                     else cls.from_env())
        except ValueError as exc:
            raise SystemExit(str(exc))
        if store is None:
            raise SystemExit("no %s database: set %s or pass --db"
                             % (cls.NOUN, cls.ENV_VAR))
        return store

    # -- connections and schema ----------------------------------------------

    def _connect(self):
        # ``timeout`` sets SQLite's busy timeout on the connection.
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _open(self):
        """Create the schema or upgrade an older one; warn if SQLite fails.

        A file at the current version is only read, so opening a store
        never waits for a writer's lock.
        """
        conn = None
        try:
            conn = self._connect()
            if self._version(conn) != self.SCHEMA_VERSION:
                # The script opens the write transaction; concurrent
                # openers take turns and re-read the version inside it.
                conn.executescript("BEGIN IMMEDIATE;" + _VERSION_TABLE
                                   + self.SCHEMA)
                if self._version(conn) is None:
                    conn.execute("INSERT INTO schema_info (version)"
                                 " VALUES (?)", (self.SCHEMA_VERSION,))
                else:
                    conn.execute("UPDATE schema_info SET version = ?",
                                 (self.SCHEMA_VERSION,))
                conn.commit()
        except sqlite3.Error as exc:
            self.log.warning("open_failed", path=self.path, error=str(exc))
        finally:
            if conn is not None:
                conn.close()

    def _version(self, conn):
        """The file's schema version, None when new; refuses a newer one."""
        if conn.execute("SELECT 1 FROM sqlite_master WHERE type = 'table'"
                        " AND name = 'schema_info'").fetchone() is None:
            return None
        row = conn.execute("SELECT version FROM schema_info").fetchone()
        if row is not None and row[0] > self.SCHEMA_VERSION:
            raise ValueError(
                "%s database %s has schema version %d, newer than the "
                "version %d this build writes; point %s at another file"
                % (self.NOUN, self.path, row[0], self.SCHEMA_VERSION,
                   self.ENV_VAR)
            )
        return None if row is None else row[0]

    # -- writes --------------------------------------------------------------

    def _append(self, table, id_column, row, write, key=()):
        """Append one head row and its children; returns its id or None.

        ``row`` maps the head ``table``'s columns to values, ``kind``
        among them; the new ``seq`` stamps the id ``<kind>-<seq>`` into
        ``id_column`` and ``write(conn, seq)`` adds the child rows. A
        stored row equal to ``row`` on the ``key`` columns makes the
        write a no-op returning the stored id. ``BEGIN IMMEDIATE``
        serializes that check and the id allocation across writer
        processes.
        """
        kind = row["kind"]
        conn = None
        try:
            conn = self._connect()
            with conn:
                conn.execute("BEGIN IMMEDIATE")
                if key:
                    existing = conn.execute(
                        "SELECT %s FROM %s WHERE %s" % (
                            id_column, table,
                            " AND ".join("%s = ?" % column
                                         for column in key)),
                        [row[column] for column in key],
                    ).fetchone()
                    if existing is not None:
                        self.log.info("write_skipped", id=existing[0],
                                      kind=kind)
                        return existing[0]
                seq = conn.execute(
                    "INSERT INTO %s (%s) VALUES (%s)" % (
                        table, ", ".join(row), ", ".join("?" for _ in row)),
                    list(row.values()),
                ).lastrowid
                row_id = "%s-%06d" % (kind, seq)
                conn.execute("UPDATE %s SET %s = ? WHERE seq = ?"
                             % (table, id_column), (row_id, seq))
                write(conn, seq)
        except sqlite3.Error as exc:
            self.log.warning("write_failed", kind=kind, error=str(exc))
            return None
        finally:
            if conn is not None:
                conn.close()
        self.log.info("written", id=row_id, kind=kind,
                      items=row.get("items", 0))
        return row_id

    # -- reads (a database that cannot be read yields no rows) ---------------

    @contextlib.contextmanager
    def reading(self):
        """Run every read inside on one connection and one snapshot.

        A deferred read transaction (``BEGIN``) fixes the snapshot at the
        first read, so a generation read first names exactly the data
        every later read sees. A nested scope on the same thread reuses
        the open one; the outermost scope closes the connection (rolling
        the read back). A database that cannot be opened reads as absent
        for the whole scope.
        """
        reader = self._reader
        if hasattr(reader, "conn"):
            yield
            return
        try:
            conn = self._connect()
        except sqlite3.Error:
            conn = None
        reader.conn = conn
        try:
            if conn is not None:
                conn.execute("BEGIN")
            yield
        finally:
            del reader.conn
            if conn is not None:
                conn.close()

    def _query(self, sql, params=()):
        with self.reading():
            conn = self._reader.conn
            if conn is None:
                return []
            try:
                return conn.execute(sql, params).fetchall()
            except sqlite3.Error:
                return []

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.path)


# -- whole files --------------------------------------------------------------


def atomic_write(path, data):
    """Write ``data`` (bytes) to ``path`` through a temp file + rename.

    Creates the parent directory. A reader sees the old file or the new
    one, never a torn write; when the write fails the temp file is
    removed and the error propagates.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_pickle(path):
    """The object pickled at ``path``, or None when missing or corrupt."""
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except _PICKLE_ERRORS:
        return None
