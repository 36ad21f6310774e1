"""Two-tier analysis cache: per-APK outcomes and per-class facts.

An APK's analysis is a pure function of its bytes and the pipeline's
feature switches, so outcomes are cached under ``(sha256, fingerprint)``
where the fingerprint encodes the :class:`PipelineOptions` in effect.
Below that sits a corpus-wide **class-facts tier** keyed by the SHA-256
of each dex class's canonical encoding (:func:`repro.dex.serialize_class`):
the paper's central finding is that third-party web content is driven by
a small set of SDKs embedded in thousands of apps, which means the same
class bytes recur across the corpus — an SDK class shipped in 2,000 apps
is decompiled and parsed once, and every later occurrence reuses the
memoized facts.

Both tiers are bounded LRU stores (``REPRO_CACHE_MAX_ENTRIES``; unbounded
by default) with eviction accounting, and the class tier can spill to an
on-disk layer (``REPRO_CACHE_DIR``) for warm starts across processes and
runs; its files follow :mod:`repro.persist` (atomic writes, a corrupt
file reads as a miss). Facts are options-independent — they are pure
functions of the class bytes — so the class tier needs no fingerprint.
The same store holds the endpoint census's propagation summaries and
the JS engine's compiled scripts, each as its own fact kind;
``REPRO_CACHE=0`` turns off all three (see :mod:`repro.exec.config`).
"""

import collections
import os
import pickle

from repro.exec.config import _env_int
from repro.persist import atomic_write, load_pickle

MAX_ENTRIES_ENV_VAR = "REPRO_CACHE_MAX_ENTRIES"
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"


def env_max_entries():
    """The ``REPRO_CACHE_MAX_ENTRIES`` bound, or None when unbounded."""
    value = _env_int(MAX_ENTRIES_ENV_VAR, 0)
    return value if value > 0 else None


def _env_cache_dir():
    raw = os.environ.get(CACHE_DIR_ENV_VAR)
    return raw if raw and raw.strip() else None


class LruStore:
    """A bounded mapping evicting least-recently-used entries.

    Shared with the dynamic pipeline's site-template cache, which follows
    the same ``REPRO_CACHE_MAX_ENTRIES`` bound (:func:`env_max_entries`).
    """

    def __init__(self, max_entries=None):
        self.max_entries = max_entries
        self.entries = collections.OrderedDict()
        self.evictions = 0

    def get(self, key):
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
        return entry

    def peek(self, key):
        """Lookup without refreshing recency."""
        return self.entries.get(key)

    def put(self, key, value):
        self.entries[key] = value
        self.entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self.entries) > self.max_entries:
                self.entries.popitem(last=False)
                self.evictions += 1

    def clear(self):
        self.entries.clear()

    def __contains__(self, key):
        return key in self.entries

    def __len__(self):
        return len(self.entries)


#: Default fact kind: the decompile/parse facts of
#: :mod:`repro.static_analysis.classfacts` (the original tier-2 payload).
CLASS_FACTS_KIND = "cls"

#: Endpoint string-propagation summaries (:mod:`repro.endpoints.summaries`).
ENDPOINT_SUMMARY_KIND = "esum"

#: Compiled injected scripts (:mod:`repro.web.jsengine`), keyed by source
#: digest plus instrumentation mode rather than by class digest.
PARSED_SCRIPT_KIND = "js"


class ClassFactsCache:
    """Content-addressed per-class analysis facts (the lower tier).

    Keys are content digests; values are one *fact kind* —
    :class:`~repro.static_analysis.classfacts.ClassFacts` by default, or
    any other picklable derivation of the content (endpoint propagation
    summaries use :data:`ENDPOINT_SUMMARY_KIND`, compiled scripts
    :data:`PARSED_SCRIPT_KIND`). The in-memory LRU is
    backed by an optional on-disk layer: one pickle per digest, written
    with :func:`repro.persist.atomic_write` and read with
    :func:`repro.persist.load_pickle`, promoted back into memory on load.
    Unreadable or corrupt files count as misses.

    Disk entries are namespaced by ``kind``: two analyses deriving
    different facts from the *same* class bytes share a digest, so each
    kind owns its own ``<kind>_<digest>.pkl`` file and several caches
    can share one ``REPRO_CACHE_DIR`` without clobbering each other.
    """

    def __init__(self, max_entries=None, cache_dir=None,
                 kind=CLASS_FACTS_KIND):
        if max_entries is None:
            max_entries = env_max_entries()
        if cache_dir is None:
            cache_dir = _env_cache_dir()
        self._store = LruStore(max_entries)
        self.cache_dir = cache_dir
        self.kind = kind
        self.hits = 0
        self.misses = 0

    # -- disk layer ----------------------------------------------------------

    def _path(self, digest):
        return os.path.join(self.cache_dir, "%s_%s.pkl" % (self.kind, digest))

    def _disk_load(self, digest):
        if self.cache_dir is None:
            return None
        return load_pickle(self._path(digest))

    def _disk_store(self, digest, facts):
        if self.cache_dir is None:
            return
        try:
            atomic_write(self._path(digest), pickle.dumps(facts))
        except OSError:
            pass

    def _disk_digests(self):
        if self.cache_dir is None:
            return set()
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return set()
        prefix = "%s_" % self.kind
        return {
            name[len(prefix):-len(".pkl")]
            for name in names
            if name.startswith(prefix) and name.endswith(".pkl")
        }

    # -- cache API -----------------------------------------------------------

    def get(self, digest):
        """The facts for one class digest, or None (counts hit/miss)."""
        facts = self._store.get(digest)
        if facts is None:
            facts = self._disk_load(digest)
            if facts is not None:
                self._store.put(digest, facts)
        if facts is None:
            self.misses += 1
        else:
            self.hits += 1
        return facts

    def peek(self, digest):
        """Lookup without touching hit/miss accounting."""
        facts = self._store.peek(digest)
        if facts is None:
            facts = self._disk_load(digest)
        return facts

    def put(self, digest, facts):
        self._store.put(digest, facts)
        self._disk_store(digest, facts)
        return facts

    def merge(self, facts_by_digest):
        """Fold a worker shard's newly computed facts into this cache."""
        for digest, facts in facts_by_digest.items():
            if digest not in self._store:
                self.put(digest, facts)

    def known_digests(self):
        """Every digest answerable without recomputation (memory + disk)."""
        return set(self._store.entries) | self._disk_digests()

    @property
    def evictions(self):
        return self._store.evictions

    def clear(self):
        """Drop the in-memory entries and reset hit/miss accounting."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __contains__(self, digest):
        return digest in self._store or (
            self.cache_dir is not None and os.path.exists(self._path(digest))
        )

    def __len__(self):
        return len(self._store)

    def __repr__(self):
        return ("ClassFactsCache(%s, %d facts, %d hits, %d misses, "
                "%d evicted)") % (
            self.kind, len(self._store), self.hits, self.misses,
            self.evictions,
        )


class AnalysisCache:
    """In-memory analysis-result cache with hit/miss accounting.

    The legacy single-tier API (``get``/``put`` on ``(sha256,
    fingerprint)``) addresses the APK-outcome tier; the class-facts tier
    hangs off :attr:`classes` and the endpoint-summary tier (the second
    fact kind over the same digests) off :attr:`summaries`. All tiers
    honor ``REPRO_CACHE_MAX_ENTRIES`` unless an explicit bound is given,
    and the two per-class tiers share the disk layer directory without
    colliding (each fact kind namespaces its own files).
    """

    def __init__(self, max_entries=None, cache_dir=None, classes=None,
                 summaries=None):
        if max_entries is None:
            max_entries = env_max_entries()
        self._entries = LruStore(max_entries)
        self.classes = (classes if classes is not None
                        else ClassFactsCache(max_entries=max_entries,
                                             cache_dir=cache_dir))
        self.summaries = (summaries if summaries is not None
                          else ClassFactsCache(max_entries=max_entries,
                                               cache_dir=cache_dir,
                                               kind=ENDPOINT_SUMMARY_KIND))
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(sha256, fingerprint):
        return (sha256, tuple(fingerprint))

    def get(self, sha256, fingerprint=()):
        """The cached outcome for one APK + options combo, or None."""
        entry = self._entries.get(self._key(sha256, fingerprint))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, sha256, fingerprint, value):
        self._entries.put(self._key(sha256, fingerprint), value)
        return value

    @property
    def evictions(self):
        return self._entries.evictions

    @property
    def max_entries(self):
        return self._entries.max_entries

    def clear(self):
        """Drop every tier's in-memory entries and reset its accounting."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.classes.clear()
        self.summaries.clear()

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __repr__(self):
        return ("AnalysisCache(%d entries, %d hits, %d misses, %d evicted; "
                "classes: %r)") % (
            len(self._entries), self.hits, self.misses, self.evictions,
            self.classes,
        )
