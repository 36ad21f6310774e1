"""The Play Store catalog and a google-play-scraper-style client.

The paper fetches metadata from the Play Store for every AndroZoo app to
filter on installs and update recency (Section 3.1.1). Notably, only ~2.45M
of AndroZoo's 6.5M Play-Store-sourced apps were still *found* on the store
(Table 2) — the rest were delisted. The catalog models both live listings
and delisted packages so the same funnel emerges from measurement.
"""

from repro.errors import AppNotFoundError
from repro.playstore.models import AppListing


class PlayStore:
    """The store-side catalog: listings plus a set of delisted packages."""

    def __init__(self):
        self._listings = {}
        self._delisted = set()

    def publish(self, listing):
        if not isinstance(listing, AppListing):
            raise TypeError("publish() requires an AppListing")
        self._listings[listing.package] = listing
        self._delisted.discard(listing.package)
        return listing

    def delist(self, package):
        """Remove an app from the storefront (keeps AndroZoo history valid)."""
        self._listings.pop(package, None)
        self._delisted.add(package)

    def lookup(self, package):
        listing = self._listings.get(package)
        if listing is None:
            raise AppNotFoundError(package)
        return listing

    def is_listed(self, package):
        return package in self._listings

    def __len__(self):
        return len(self._listings)


class PlayScraperClient:
    """Client-side metadata fetcher (the google-play-scraper analogue).

    Returns raw metadata dictionaries and raises
    :class:`~repro.errors.AppNotFoundError` for delisted apps, which the
    pipeline counts when producing the Table 2 funnel.
    """

    def __init__(self, store):
        self._store = store
        self.requests_made = 0
        self.not_found = 0

    def app(self, package):
        """Fetch one app's metadata dict; raises AppNotFoundError."""
        self.requests_made += 1
        try:
            listing = self._store.lookup(package)
        except AppNotFoundError:
            self.not_found += 1
            raise
        return listing.to_dict()

    def app_listing(self, package):
        """Fetch one app's metadata as an :class:`AppListing`."""
        self.requests_made += 1
        try:
            return self._store.lookup(package)
        except AppNotFoundError:
            self.not_found += 1
            raise

    def try_app_listing(self, package):
        """Like :meth:`app_listing` but returns None when delisted."""
        try:
            return self.app_listing(package)
        except AppNotFoundError:
            return None
