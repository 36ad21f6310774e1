"""Snapshot evolution: one universe growing across dated snapshots.

AndroZoo is an append-only archive — later snapshots of the same index
contain everything earlier ones did plus whatever the crawler saw since.
:func:`evolve_corpus` reproduces that shape synthetically: starting from
a generated :class:`~repro.corpus.generator.Corpus` it applies dated
churn steps (app additions, version bumps, SDK migrations, delistings)
and archives the resulting APK versions with ``dex_date`` inside each
step's window, so ``repository.snapshot(date)`` yields a true historical
view per step.

Evolution runs **up front**, before any study: Play listings are
current-state (the paper fetched metadata once, at study time), so
mutating them between runs would invalidate outcomes carried forward by
the longitudinal engine. One fully evolved corpus gives every snapshot
run — cold, delta or resumed — an identical store, which is what makes
their results byte-identical.

Everything is deterministic: per-step RNG streams derive from the corpus
seed and the step date, and the applied churn is digested into
``corpus.evolution_token`` so persistent run stores can tell differently
evolved timelines apart.
"""

import datetime

from repro.corpus.profiles import SdkUse, _sample_methods, build_spec
from repro.corpus.generator import base_version_code, publish_spec
from repro.obs import get_logger
from repro.util import derive_seed, make_rng, sha256_hex, weighted_choice


class ChurnConfig:
    """How much a universe changes between consecutive snapshots.

    ``update_fraction`` and ``migration_fraction`` are fractions of the
    currently *selected* apps that receive a plain version bump or an
    SDK migration (plus bump) per step; ``addition_fraction`` is the
    fraction of the base universe size added as brand-new index entries
    (which then face the usual Table 2 funnel); ``delisting_fraction``
    is the fraction of selected apps pulled from the Play storefront.
    The defaults give roughly 10% churn among analyzed apps per step.
    """

    def __init__(self, update_fraction=0.06, migration_fraction=0.025,
                 addition_fraction=0.02, delisting_fraction=0.01):
        self.update_fraction = float(update_fraction)
        self.migration_fraction = float(migration_fraction)
        self.addition_fraction = float(addition_fraction)
        self.delisting_fraction = float(delisting_fraction)

    def signature(self):
        """Stable identity material for the evolution token."""
        return (self.update_fraction, self.migration_fraction,
                self.addition_fraction, self.delisting_fraction)

    def __repr__(self):
        return ("ChurnConfig(update=%.3f, migrate=%.3f, add=%.3f, "
                "delist=%.3f)") % self.signature()


class SnapshotStep:
    """The churn applied to reach one dated snapshot."""

    def __init__(self, date):
        self.date = date
        self.added = []
        self.updated = []
        self.migrated = []
        self.delisted = []

    def counts(self):
        return {
            "added": len(self.added),
            "updated": len(self.updated),
            "migrated": len(self.migrated),
            "delisted": len(self.delisted),
        }

    def __repr__(self):
        return "SnapshotStep(%s, +%d ~%d sdk%d -%d)" % (
            self.date, len(self.added), len(self.updated),
            len(self.migrated), len(self.delisted),
        )


class Timeline:
    """An evolved corpus plus the dated steps that shaped it."""

    def __init__(self, corpus, steps):
        self.corpus = corpus
        self.steps = list(steps)

    @property
    def dates(self):
        """Every snapshot date, base first, ascending."""
        return [self.corpus.config.snapshot_date] + [
            step.date for step in self.steps
        ]

    def snapshots(self):
        return [self.corpus.repository.snapshot(date) for date in self.dates]

    def __repr__(self):
        return "Timeline(%d snapshots over %s..%s)" % (
            len(self.dates), self.dates[0], self.dates[-1]
        )


def _coerce_date(value):
    if isinstance(value, str):
        return datetime.date.fromisoformat(value)
    if isinstance(value, datetime.datetime):
        return value.date()
    return value


def _date_in_window(rng, start, end):
    """A date in the half-open archive window (start, end]."""
    days = (end - start).days
    return start + datetime.timedelta(days=rng.randrange(days) + 1)


def _migrate_sdks(spec, rng, catalog):
    """Mutate a spec's SDK story: swap one embedded SDK, or adopt one.

    Apps already embedding SDKs swap one for a different catalog SDK of
    the same mechanism (the Table 1 longitudinal story: ecosystems move
    between SDK vendors); apps without any embedded web SDK *adopt* a
    WebView SDK, which is what drives adoption upward across snapshots.
    Returns a short event label for the step record.
    """
    if spec.sdk_uses:
        position = rng.randrange(len(spec.sdk_uses))
        use = spec.sdk_uses[position]
        if use.via_webview:
            candidates = [s for s in catalog
                          if s.uses_webview and s.name != use.sdk.name]
        else:
            candidates = [s for s in catalog
                          if s.uses_customtabs and s.name != use.sdk.name]
        embedded = {u.sdk.name for u in spec.sdk_uses}
        fresh = [s for s in candidates if s.name not in embedded]
        new_sdk = rng.choice(fresh or candidates)
        methods = (_sample_methods(rng, new_sdk.method_profile())
                   if use.via_webview else ())
        spec.sdk_uses[position] = SdkUse(
            new_sdk, use.via_webview, use.via_customtabs, methods
        )
        return "swap:%s->%s" % (use.sdk.name, new_sdk.name)
    webview_sdks = [s for s in catalog if s.uses_webview]
    new_sdk = weighted_choice(
        rng, {s: s.webview_apps for s in webview_sdks}
    )
    spec.sdk_uses.append(
        SdkUse(new_sdk, True, False,
               _sample_methods(rng, new_sdk.method_profile()))
    )
    spec.uses_webview = True
    return "adopt:%s" % new_sdk.name


def evolve_corpus(corpus, dates, churn=None):
    """Evolve ``corpus`` through the given snapshot ``dates``.

    ``dates`` must be strictly after the corpus's base snapshot date and
    ascending. Each step samples churn deterministically from the corpus
    seed, archives new APK versions (with ``dex_date`` inside the step's
    window) and registers added specs, then the whole history is
    digested into ``corpus.evolution_token``. Returns a
    :class:`Timeline`; call this exactly once, before running studies.
    """
    config = corpus.config
    churn = churn or ChurnConfig()
    dates = [_coerce_date(date) for date in dates]
    previous = config.snapshot_date
    for date in dates:
        if date <= previous:
            raise ValueError(
                "snapshot dates must ascend from %s, got %s"
                % (previous, date)
            )
        previous = date

    log = get_logger("corpus.evolution")
    steps = []
    window_start = config.snapshot_date
    #: Highest archived version code per package, tracked across steps.
    version_codes = {}
    next_index = len(corpus.specs)

    for date in dates:
        rng = make_rng(derive_seed(config.seed, "evolve", str(date)))
        step = SnapshotStep(date)

        candidates = [
            spec for spec in corpus.specs
            if spec.selected and corpus.store.is_listed(spec.package)
        ]

        def bump(spec, reason):
            code = version_codes.get(spec.package,
                                     base_version_code(spec)) + 1
            version_codes[spec.package] = code
            # A genuine update: the Play listing's declared date moves
            # with the new APK, keeping the maintenance filter truthful.
            spec.updated = _date_in_window(rng, window_start, date)
            publish_spec(
                corpus.store, corpus.repository, spec, config.seed,
                version_code=code, dex_date=spec.updated,
                apk_seed=derive_seed(config.seed, reason, spec.package,
                                     code),
            )

        n_updates = round(churn.update_fraction * len(candidates))
        for spec in rng.sample(candidates, min(n_updates, len(candidates))):
            bump(spec, "update")
            step.updated.append(spec.package)

        n_migrations = round(churn.migration_fraction * len(candidates))
        migratable = [spec for spec in candidates
                      if spec.package not in step.updated]
        for spec in rng.sample(migratable,
                               min(n_migrations, len(migratable))):
            event = _migrate_sdks(spec, rng, corpus.catalog)
            bump(spec, "migrate")
            step.migrated.append("%s %s" % (spec.package, event))

        # Additions enter the *index* inside this step's window (that is
        # what makes them new to this snapshot); their Play listing date
        # stays as sampled so the maintenance filter still matches the
        # spec's funnel flags — the crawler often archives old apps.
        n_additions = round(churn.addition_fraction * config.universe_size)
        for _ in range(n_additions):
            spec = build_spec(config, corpus.catalog, next_index)
            next_index += 1
            corpus.add_spec(spec)
            publish_spec(
                corpus.store, corpus.repository, spec, config.seed,
                dex_date=_date_in_window(rng, window_start, date),
            )
            if spec.selected:
                step.added.append(spec.package)

        n_delistings = round(churn.delisting_fraction * len(candidates))
        remaining = [spec for spec in candidates
                     if spec.package not in step.updated
                     and not any(m.startswith(spec.package + " ")
                                 for m in step.migrated)]
        for spec in rng.sample(remaining,
                               min(n_delistings, len(remaining))):
            corpus.store.delist(spec.package)
            step.delisted.append(spec.package)

        log.info("snapshot_evolved", date=str(date), **step.counts())
        steps.append(step)
        window_start = date

    material = repr((
        corpus.evolution_token,
        [str(date) for date in dates],
        churn.signature(),
    ))
    corpus.evolution_token = sha256_hex(material.encode("utf-8"))[:12]
    return Timeline(corpus, steps)
