"""Content-addressed per-class analysis facts.

The paper's central measurement is dominated by a small set of SDKs
embedded in thousands of apps, so the dex classes the Figure-1 hot path
decompiles and parses are massively duplicated across the corpus. This
module captures everything the per-APK analysis derives from *one class
in isolation* — generated Java source, the parsed-source WebView
``extends`` entries, and per-method invoke summaries — keyed by the
SHA-256 of the class's canonical encoding
(:func:`repro.dex.serialize_class`), so each distinct class is analyzed
once per corpus no matter how many APKs ship it.

What must stay per-APK (and therefore is *not* here): superclass-chain
resolution, entry-point discovery and reachability traversal, deep-link
exclusion — all of which depend on the whole DEX file or the manifest.

Determinism contract: :func:`facts_for_class` reads the ambient clock
exactly twice per class, hit or miss, so tick-clock span durations (and
hence same-seed metrics) are identical regardless of cache state, worker
count or chunk scheduling. Hit/miss *metrics* are never derived from
these helpers — the pipeline replays outcome digest lists in selection
order instead (DESIGN.md §10).
"""

from repro.callgraph.builder import class_method_summary
from repro.dex.binary import serialize_class
from repro.static_analysis.webview_usage import class_web_source_facts
from repro.util import sha256_hex


class ClassFacts:
    """Everything derivable from one class's canonical bytes.

    ``cost`` is the clock time the original computation took (the basis
    of the "estimated time saved" metric); ``canonical_size`` is the
    canonical encoding's byte length (the basis of "bytes deduplicated").
    Instances are picklable: they cross the process-pool boundary in
    worker ship-backs and land in the on-disk cache layer.
    """

    __slots__ = ("digest", "class_name", "source", "web_entries",
                 "method_summary", "canonical_size", "cost")

    def __init__(self, digest, class_name, source, web_entries,
                 method_summary, canonical_size, cost=0.0):
        self.digest = digest
        self.class_name = class_name
        self.source = source
        self.web_entries = web_entries
        self.method_summary = method_summary
        self.canonical_size = canonical_size
        self.cost = cost

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self):
        return "ClassFacts(%s, %s, %d bytes)" % (
            self.digest[:12], self.class_name, self.canonical_size
        )


class FactsRecorder:
    """Per-task record of which facts an analysis touched.

    ``digests`` is the ordered digest of every class in the APK (the
    replay stream for deterministic cache accounting); ``new`` holds the
    facts computed — not served from cache — during this task, which
    process-pool workers ship back so the corpus-level cache warms
    across chunks.
    """

    __slots__ = ("digests", "new")

    def __init__(self):
        self.digests = []
        self.new = {}


def compute_class_facts(dex_class, decompiler, digest=None, canonical=None):
    """Compute the facts for one class from scratch."""
    if canonical is None:
        canonical = serialize_class(dex_class)
    if digest is None:
        digest = sha256_hex(canonical)
    source = decompiler.decompile_class(dex_class)
    web_entries = class_web_source_facts(source) if source is not None else ()
    return ClassFacts(
        digest=digest,
        class_name=dex_class.name,
        source=source,
        web_entries=web_entries,
        method_summary=class_method_summary(dex_class),
        canonical_size=len(canonical),
    )


def facts_for_class(dex_class, decompiler, cache=None, recorder=None,
                    clock=None):
    """The facts for one class, served from ``cache`` when possible.

    Always digests the class (the lookup key must be recomputed per
    APK); decompilation, parsing and summarization are skipped on a hit.
    The ambient clock is read exactly twice whether or not the cache
    hits — see the module docstring for why.
    """
    start = clock() if clock is not None else 0.0
    canonical = serialize_class(dex_class)
    digest = sha256_hex(canonical)
    facts = cache.get(digest) if cache is not None else None
    computed = facts is None
    if computed:
        facts = compute_class_facts(dex_class, decompiler, digest=digest,
                                    canonical=canonical)
    end = clock() if clock is not None else 0.0
    if computed:
        # Rounded to the nanosecond: the same duration read at two
        # clock offsets differs in its last bits across workers.
        facts.cost = round(end - start, 9)
        if cache is not None:
            cache.put(digest, facts)
        if recorder is not None:
            recorder.new[digest] = facts
    if recorder is not None:
        recorder.digests.append(digest)
    return facts
