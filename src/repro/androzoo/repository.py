"""An AndroZoo-like repository of APKs (Allix et al. [39]).

AndroZoo periodically crawls app stores and archives every APK version it
sees, indexed by SHA-256 with metadata (package name, version code, dex
date, markets). The paper uses the January 13, 2023 snapshot to enumerate
Play-Store apps and to download each selected app's most recent APK.

APK payloads may be stored eagerly (bytes) or lazily (a zero-argument
callable producing bytes), so corpus generation can defer the expensive
APK synthesis until the pipeline actually downloads the app.
"""

import datetime

from repro.errors import RepositoryError
from repro.util import sha256_hex

PLAY_MARKET = "play.google.com"


class IndexRow:
    """One archived APK version, as a row of the AndroZoo index CSV."""

    def __init__(self, sha256, package, version_code, dex_date, markets,
                 apk_size=0):
        self.sha256 = sha256
        self.package = package
        self.version_code = int(version_code)
        # Normalize to datetime.date: the index CSV carries bare dates,
        # but callers also hand in datetimes (datetime is a *subclass*
        # of date, so the subclass check must come first). Mixing the
        # two would make snapshot(date) comparisons raise TypeError.
        if isinstance(dex_date, str):
            dex_date = datetime.date.fromisoformat(dex_date)
        elif isinstance(dex_date, datetime.datetime):
            dex_date = dex_date.date()
        self.dex_date = dex_date
        self.markets = tuple(markets)
        self.apk_size = apk_size

    def __repr__(self):
        return "IndexRow(%s v%d, %s)" % (
            self.package, self.version_code, self.dex_date
        )


class Snapshot:
    """A dated, immutable view of the repository index.

    Rows are stored in a canonical ``(package, version_code, sha256)``
    order regardless of generator insertion order, so snapshot listings,
    diffs and resumed runs iterate identically no matter how the index
    was assembled.
    """

    def __init__(self, date, rows):
        self.date = date
        self.rows = tuple(sorted(
            rows, key=lambda row: (row.package, row.version_code, row.sha256)
        ))
        self._latest = {}

    def packages(self, market=None):
        """Distinct package names, optionally restricted to one market."""
        seen = set()
        ordered = []
        for row in self.rows:
            if market is not None and market not in row.markets:
                continue
            if row.package not in seen:
                seen.add(row.package)
                ordered.append(row.package)
        return ordered

    def latest_rows(self, market=None):
        """package -> most recent archived row, in one pass (memoized).

        The winner per package is the highest ``(version_code,
        dex_date)`` pair; the canonical row order breaks any remaining
        ties by sha256.
        """
        cached = self._latest.get(market)
        if cached is None:
            cached = {}
            for row in self.rows:
                if market is not None and market not in row.markets:
                    continue
                best = cached.get(row.package)
                if best is None or (row.version_code, row.dex_date) >= (
                    best.version_code, best.dex_date
                ):
                    cached[row.package] = row
            self._latest[market] = cached
        return cached

    def latest_version(self, package, market=None):
        """The most recent archived row for ``package`` (None if absent).

        With ``market=``, only rows archived from that market are
        considered — the pipeline restricts to the Play market so a
        newer sideloaded/alternative-market archive of the same package
        can never win the version pick.
        """
        return self.latest_rows(market).get(package)

    def __len__(self):
        return len(self.rows)


class SnapshotDelta:
    """The package-level difference between two dated snapshots.

    Computed over each package's *latest* archived row (the version the
    pipeline would download), so an app counts as ``updated`` exactly
    when a re-run would fetch a different APK. Every bucket holds sorted
    package names; ``new_rows`` maps each added/updated package to the
    row the newer snapshot would analyze.
    """

    def __init__(self, old, new, added, updated, removed, unchanged,
                 new_rows):
        self.old = old
        self.new = new
        self.added = added
        self.updated = updated
        self.removed = removed
        self.unchanged = unchanged
        self.new_rows = new_rows

    @property
    def changed(self):
        """Packages whose APK a fresh run must (re-)analyze."""
        return self.added + self.updated

    def counts(self):
        return {
            "added": len(self.added),
            "updated": len(self.updated),
            "removed": len(self.removed),
            "unchanged": len(self.unchanged),
        }

    def __repr__(self):
        return "SnapshotDelta(+%d ~%d -%d =%d)" % (
            len(self.added), len(self.updated), len(self.removed),
            len(self.unchanged),
        )


def diff_snapshots(old, new, market=PLAY_MARKET):
    """Diff two snapshots into added / updated / removed / unchanged.

    ``old`` may be None for a cold start, in which case every package in
    ``new`` is added. The delta is what the longitudinal planner feeds
    the scheduler: only added/updated packages need analysis, everything
    unchanged is carried forward from the prior run.
    """
    old_latest = old.latest_rows(market) if old is not None else {}
    new_latest = new.latest_rows(market)
    added, updated, removed, unchanged = [], [], [], []
    new_rows = {}
    for package in sorted(new_latest):
        row = new_latest[package]
        prior = old_latest.get(package)
        if prior is None:
            added.append(package)
            new_rows[package] = row
        elif prior.sha256 != row.sha256:
            updated.append(package)
            new_rows[package] = row
        else:
            unchanged.append(package)
    for package in sorted(old_latest):
        if package not in new_latest:
            removed.append(package)
    return SnapshotDelta(old, new, added, updated, removed, unchanged,
                         new_rows)


class AndroZooRepository:
    """The repository: index rows plus APK payload storage."""

    def __init__(self):
        self._rows = []
        self._payloads = {}
        self.downloads_served = 0

    def archive(self, package, version_code, dex_date, payload,
                markets=(PLAY_MARKET,)):
        """Archive one APK version.

        ``payload`` is APK bytes or a zero-argument callable returning
        bytes (lazy synthesis). The SHA-256 key is derived from the
        package identity for lazy payloads so archiving stays cheap.
        """
        if callable(payload):
            sha256 = sha256_hex(
                ("%s:%d" % (package, version_code)).encode("utf-8")
            )
            size = 0
        else:
            sha256 = sha256_hex(payload)
            size = len(payload)
        row = IndexRow(sha256, package, version_code, dex_date, markets, size)
        self._rows.append(row)
        self._payloads[sha256] = payload
        return row

    def snapshot(self, date=None):
        """Return a dated :class:`Snapshot`: rows with ``dex_date <= date``.

        A snapshot is a historical view of the index — rows archived
        after the snapshot date must not leak into its listing.
        """
        if isinstance(date, str):
            date = datetime.date.fromisoformat(date)
        if date is None:
            date = datetime.date(2023, 1, 13)
        rows = [row for row in self._rows if row.dex_date <= date]
        return Snapshot(date, rows)

    def download(self, sha256):
        """Fetch APK bytes by SHA-256 (resolving lazy payloads)."""
        if sha256 not in self._payloads:
            raise RepositoryError("unknown sha256: %s" % sha256)
        payload = self._payloads[sha256]
        if callable(payload):
            payload = payload()
            self._payloads[sha256] = payload
        self.downloads_served += 1
        return payload

    def __len__(self):
        return len(self._rows)
