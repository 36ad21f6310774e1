"""LongitudinalStudy: the multi-snapshot study, one call per artifact.

The longitudinal sibling of :class:`repro.core.StaticStudy`: generates a
universe, evolves it across the requested snapshot dates with
configurable churn (:mod:`repro.corpus.evolution`), then runs each
snapshot incrementally through an
:class:`~repro.longitudinal.delta.IncrementalRunner` — the first run is
cold, every later one analyzes only the APKs that changed, and a killed
run resumes from its checkpoint. Trend tables come from
:class:`~repro.longitudinal.trends.TrendSeries`.
"""

from repro.corpus.config import CorpusConfig
from repro.corpus.evolution import ChurnConfig, evolve_corpus
from repro.corpus.generator import generate_corpus
from repro.exec import ExecConfig
from repro.longitudinal.delta import IncrementalRunner
from repro.longitudinal.runstore import RunStore
from repro.longitudinal.trends import TrendSeries
from repro.obs import Obs
from repro.util import DEFAULT_SEED

#: Default follow-up snapshots: quarterly after the paper's January 2023.
DEFAULT_SNAPSHOT_DATES = ("2023-04-13", "2023-07-13")


class LongitudinalStudy:
    """The static study repeated over an evolving corpus.

    ``dates`` are the snapshots *after* the base corpus date (the
    paper's 2023-01-13); the base snapshot always runs first. Pass a
    :class:`~repro.longitudinal.runstore.RunStore` (or set
    ``REPRO_RUN_STORE``) to persist outcomes across processes; without
    one the engine still runs incrementally within the process.
    """

    def __init__(self, universe_size=8_000, seed=DEFAULT_SEED, corpus=None,
                 dates=DEFAULT_SNAPSHOT_DATES, churn=None, run_store=None,
                 options=None, obs=None, max_workers=None, chunk_size=None,
                 exec_backend=None, checkpoint_every=25, telemetry=None,
                 results_store=None, progress_hook=None):
        self.obs = obs if obs is not None else Obs()
        if corpus is None:
            corpus = generate_corpus(
                CorpusConfig(universe_size=universe_size, seed=seed),
                obs=self.obs,
            )
        self.corpus = corpus
        self.churn = churn or ChurnConfig()
        self.timeline = evolve_corpus(corpus, dates, self.churn)
        self.runner = IncrementalRunner(
            corpus,
            run_store=(run_store if run_store is not None else RunStore()),
            options=options,
            obs=self.obs,
            exec_config=ExecConfig(max_workers=max_workers,
                                   chunk_size=chunk_size,
                                   backend=exec_backend),
            checkpoint_every=checkpoint_every,
            telemetry=telemetry,
            results_store=results_store,
            progress_hook=progress_hook,
        )
        #: Completed IncrementalRuns, in snapshot order.
        self.runs = []

    @property
    def dates(self):
        return self.timeline.dates

    def run_all(self, max_apps=None, progress=None):
        """Run every snapshot in order; returns the IncrementalRuns."""
        for date in self.dates:
            if any(run.snapshot_date == date for run in self.runs):
                continue
            self.run_snapshot(date, max_apps=max_apps, progress=progress)
        return self.runs

    def run_snapshot(self, date, max_apps=None, progress=None):
        """Run (or re-run, then cheaply replay) one snapshot."""
        run = self.runner.run_snapshot(date, max_apps=max_apps,
                                       progress=progress)
        self.runs = [r for r in self.runs if r.snapshot_date != run.snapshot_date]
        self.runs.append(run)
        self.runs.sort(key=lambda r: r.snapshot_date)
        return run

    # -- artifacts -----------------------------------------------------------

    def trend(self):
        """The TrendSeries over every completed snapshot run."""
        if not self.runs:
            self.run_all()
        with self.obs.activate():
            return TrendSeries.from_runs(self.runs)

    def trend_table(self):
        return self.trend().adoption_table()

    def funnel_table(self):
        return self.trend().funnel_table()

    def sdk_trend_table(self, top_n=8):
        return self.trend().sdk_trend_table(top_n)

    def run_report(self):
        """Pipeline-health markdown including the Longitudinal section."""
        analyzed = sum(run.result.analyzed for run in self.runs)
        return self.obs.run_report(
            "Longitudinal study run report", items_label="apps",
            items_count=analyzed, root_span="run",
        )
