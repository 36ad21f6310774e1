"""Ecosystem assembly: specs -> Play Store + AndroZoo repository.

:func:`generate_corpus` produces a :class:`Corpus` holding the populated
store, repository and ground-truth specs. APK payloads for selected apps
are archived lazily — they are synthesized only when the pipeline actually
downloads them — so large universes stay cheap to create.
"""

import functools

from repro.androzoo.repository import AndroZooRepository
from repro.corpus.appgen import build_app_apk
from repro.corpus.config import CorpusConfig
from repro.corpus.profiles import generate_specs
from repro.exec.cache import AnalysisCache
from repro.obs import default_obs, get_logger
from repro.playstore.models import AppListing
from repro.playstore.store import PlayStore
from repro.sdk.catalog import build_catalog
from repro.util import sha256_hex

#: Universe composition counter, labelled by spec disposition.
CORPUS_SPECS_METRIC = "repro_corpus_specs_total"


class Corpus:
    """A generated ecosystem: store, repository, catalog, ground truth."""

    def __init__(self, config, catalog, specs, store, repository):
        self.config = config
        self.catalog = catalog
        self.specs = list(specs)
        self.store = store
        self.repository = repository
        #: Shared per-corpus analysis-result cache (see repro.exec):
        #: every pipeline run over this corpus reuses prior per-APK
        #: outcomes keyed by (sha256, pipeline options).
        self.analysis_cache = AnalysisCache()
        #: Set by :func:`repro.corpus.evolution.evolve_corpus`: digests
        #: the churn applied on top of the base universe, so the corpus
        #: fingerprint distinguishes differently evolved timelines.
        self.evolution_token = None

    def add_spec(self, spec):
        """Register a spec added after generation (snapshot evolution)."""
        self.specs.append(spec)
        return spec

    def fingerprint(self):
        """Content identity of this universe, for persistent run stores.

        Lazy APK payloads derive their sha256 from ``package:version``
        rather than real bytes, so two corpora with different seeds (or
        different evolution histories) can collide on sha256 while their
        bytes differ. Persistent stores key outcomes under this
        fingerprint as well, making a shared ``REPRO_RUN_STORE``
        directory safe across corpora.
        """
        material = repr((
            "corpus", self.config.seed, self.config.universe_size,
            str(self.config.snapshot_date), self.evolution_token,
        ))
        return sha256_hex(material.encode("utf-8"))[:16]

    def selected_specs(self):
        """Ground truth for apps surviving the Table 2 filters."""
        return [spec for spec in self.specs if spec.selected]

    def top_apps(self, count):
        """Selected apps ranked by install count (descending)."""
        ranked = sorted(
            self.selected_specs(),
            key=lambda spec: (-spec.installs, spec.index),
        )
        return ranked[:count]

    def __repr__(self):
        return "Corpus(universe=%d, selected=%d)" % (
            len(self.specs), len(self.selected_specs())
        )


def generate_corpus(config=None, catalog=None, obs=None):
    """Generate the full synthetic ecosystem."""
    config = config or CorpusConfig()
    catalog = catalog or build_catalog()
    obs = obs if obs is not None else default_obs()
    with obs.span("corpus_generate", universe=config.universe_size,
                  seed=config.seed):
        specs = generate_specs(config, catalog)
        corpus = _assemble(config, catalog, specs)

    dispositions = obs.counter(
        CORPUS_SPECS_METRIC,
        "Generated app specs, by disposition in the synthetic ecosystem.",
        ("disposition",),
    )
    dispositions.labels(disposition="listed").inc(
        sum(1 for spec in specs if spec.listed))
    dispositions.labels(disposition="delisted").inc(
        sum(1 for spec in specs if not spec.listed))
    dispositions.labels(disposition="selected").inc(
        len(corpus.selected_specs()))
    get_logger("corpus").info(
        "corpus_generated", universe=len(specs),
        selected=len(corpus.selected_specs()), seed=config.seed,
    )
    return corpus


def base_version_code(spec):
    """The version code the generator archives a spec under."""
    return max(1, spec.index % 90)


def publish_spec(store, repository, spec, seed, version_code=None,
                 dex_date=None, apk_seed=None):
    """Publish one spec's listing and archive its APK index row.

    The shared assembly step for both initial generation and snapshot
    evolution: ``version_code`` / ``dex_date`` / ``apk_seed`` default to
    the generator's values and are overridden when archiving an updated
    version of an already-published app. The Play listing always carries
    ``spec.updated`` — the declared update date drives the Table 2
    maintenance filter, so it must stay consistent with the spec's
    ``maintained`` flag — while ``dex_date`` overrides only the AndroZoo
    index row (the crawler can see an APK long after its release).
    Payloads stay lazy for selected specs; everything else archives a
    cheap stub.
    """
    if spec.listed:
        store.publish(
            AppListing(
                spec.package,
                spec.title,
                spec.category,
                spec.installs,
                spec.updated,
                developer="dev.%s" % spec.package.split(".")[1],
            )
        )
    else:
        store.delist(spec.package)

    # AndroZoo archived every app it ever saw on the Play Store;
    # full payloads are synthesized lazily for selected apps only.
    if version_code is None:
        version_code = base_version_code(spec)
    if spec.selected:
        payload = functools.partial(
            build_app_apk, spec, seed if apk_seed is None else apk_seed
        )
    else:
        payload = b"APKSTUB:%s:%d" % (
            spec.package.encode("utf-8"), version_code
        )
    return repository.archive(
        spec.package, version_code,
        spec.updated if dex_date is None else dex_date, payload,
    )


def _assemble(config, catalog, specs):
    store = PlayStore()
    repository = AndroZooRepository()
    for spec in specs:
        publish_spec(store, repository, spec, config.seed)
    return Corpus(config, catalog, specs, store, repository)
