"""Longitudinal aggregation: per-snapshot metrics and trend tables.

One :class:`SnapshotPoint` wraps a snapshot run's
:class:`~repro.static_analysis.results.StudyResult` with its
:class:`~repro.static_analysis.report.Aggregator`; a :class:`TrendSeries`
strings points together in date order and renders the study's evolution
as :mod:`repro.reporting` tables — the Table 2 funnel per snapshot,
WebView/CT adoption shares with deltas, and per-SDK app counts over
time. The paper measured one snapshot (January 2023); these tables are
what its methodology yields when re-run across an evolving corpus.
"""

from repro.reporting import Table
from repro.static_analysis.report import Aggregator


def share(apps, analyzed):
    """``apps`` as a percentage of ``analyzed`` (0.0 when none were).

    The one reduction behind the :class:`SnapshotPoint` shares and the
    served ``ResultsService.adoption_trend``.
    """
    return 100.0 * apps / (analyzed or 1)


class SnapshotPoint:
    """One snapshot's aggregated measurements."""

    def __init__(self, date, result, aggregator=None):
        self.date = date
        self.result = result
        self.aggregator = aggregator or Aggregator(result)

    @property
    def analyzed(self):
        return self.result.analyzed

    @property
    def webview_share(self):
        return share(self.aggregator.webview_apps, self.analyzed)

    @property
    def ct_share(self):
        return share(self.aggregator.ct_apps, self.analyzed)

    @property
    def both_share(self):
        return share(self.aggregator.both_apps, self.analyzed)

    def __repr__(self):
        return "SnapshotPoint(%s, %d analyzed, wv=%.1f%%, ct=%.1f%%)" % (
            self.date, self.analyzed, self.webview_share, self.ct_share
        )


class TrendSeries:
    """Snapshot points in date order, rendered as trend tables."""

    def __init__(self, points):
        self.points = sorted(points, key=lambda point: point.date)

    @classmethod
    def from_runs(cls, runs):
        """Build from :class:`~repro.longitudinal.delta.IncrementalRun`s."""
        return cls([
            SnapshotPoint(run.snapshot_date, run.result) for run in runs
        ])

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    # -- tables --------------------------------------------------------------

    def funnel_table(self):
        """Per-snapshot Table 2: the selection funnel across snapshots."""
        table = Table(
            ["Dataset"] + [str(point.date) for point in self.points],
            title="Table 2 over time: selection funnel per snapshot",
        )
        rows = [
            ("Play Store apps in Androzoo", "androzoo_play_apps"),
            ("Apps found on Play Store", "found_on_play"),
            ("Apps with 100k+ downloads", "with_100k_downloads"),
            ("... and updated after 2021", "updated_after_2021"),
            ("Apps successfully analyzed", "successfully_analyzed"),
        ]
        for label, key in rows:
            table.add_row(label, *[
                point.result.funnel_dict()[key] for point in self.points
            ])
        return table

    def adoption_table(self):
        """WebView/CT adoption per snapshot, with deltas vs the previous."""
        table = Table(
            ["Snapshot", "Analyzed", "WebView apps", "CT apps",
             "Both", "WebView %", "CT %", "Δ WebView pp", "Δ CT pp"],
            title="Web-content adoption across snapshots",
        )
        previous = None
        for point in self.points:
            webview_delta = ct_delta = ""
            if previous is not None:
                webview_delta = "%+.1f" % (
                    point.webview_share - previous.webview_share
                )
                ct_delta = "%+.1f" % (point.ct_share - previous.ct_share)
            table.add_row(
                str(point.date),
                point.analyzed,
                point.aggregator.webview_apps,
                point.aggregator.ct_apps,
                point.aggregator.both_apps,
                "%.1f" % point.webview_share,
                "%.1f" % point.ct_share,
                webview_delta,
                ct_delta,
            )
            previous = point
        return table

    def sdk_trend_table(self, top_n=8):
        """Per-SDK WebView app counts over time (Table 4's trend view).

        SDKs are ranked by their app count in the latest snapshot; the
        delta column is latest minus earliest, surfacing the adoption
        churn the migration machinery injects.
        """
        latest = self.points[-1].aggregator
        ranked = sorted(
            latest.sdk_webview_apps.items(),
            key=lambda item: (-item[1], item[0]),
        )[:top_n]
        table = Table(
            ["SDK"] + [str(point.date) for point in self.points] + ["Δ apps"],
            title="Popular WebView SDKs across snapshots (apps embedding)",
        )
        for name, _ in ranked:
            counts = [
                point.aggregator.sdk_webview_apps.get(name, 0)
                for point in self.points
            ]
            table.add_row(name, *counts, "%+d" % (counts[-1] - counts[0]))
        return table

    def __repr__(self):
        return "TrendSeries(%d snapshots)" % len(self.points)
