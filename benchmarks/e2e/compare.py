"""Compare two sets of bench_e2e runs against BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A B

``A`` (the baseline) and ``B`` are result files written by ``run.py``
(``--out``) or directories holding them; only untraced runs count. For
every end-to-end metric and workload the medians of the two sets are
compared with the metric's bound:

- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better by more than the bound;
- ``unresolved``: either set's spread (quartile distance over median) is
  wider than the bound, and not every run of B beats every run of A;
- ``within bound``: otherwise.

It prints one row per workload and exits 1 when any metric is worse.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_runs(path):
    """``{workload: [metrics, ...]}`` from a result file or directory."""
    paths = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "*-trace0.json"))))
    runs = {}
    for name in paths:
        with open(name) as handle:
            result = json.load(handle)
        if result.get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(result["metrics"])
    return runs


def spread(values):
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(base, change, better, bound):
    """``(verdict, relative change of B's median)`` for one metric."""
    base_median = statistics.median(base)
    relative = (statistics.median(change) - base_median) / base_median
    worse_by = relative if better == "lower" else -relative
    if max(spread(base), spread(change)) > bound:
        beats_all = (max(change) < min(base) if better == "lower"
                     else min(change) > max(base))
        return ("better" if beats_all else "unresolved"), relative
    if worse_by > bound:
        return "worse", relative
    if worse_by < -bound:
        return "better", relative
    return "within bound", relative


def compare(base_runs, change_runs, metrics):
    """Rows of ``(workload, [(metric, verdict, relative change)])``."""
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        cells = []
        for metric in metrics:
            name = metric["name"]
            base = [run[name]["value"] for run in base_runs[workload]]
            change = [run[name]["value"] for run in change_runs[workload]]
            cells.append((name,) + verdict(base, change, metric["better"],
                                           metric["bound"]))
        rows.append((workload, cells))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    base_runs, change_runs = load_runs(argv[0]), load_runs(argv[1])
    rows = compare(base_runs, change_runs, metrics)
    if not rows:
        print("no workload has untraced runs in both sets", file=sys.stderr)
        return 2
    print("%-20s %s" % ("workload", "  ".join(
        "%-26s" % metric["name"] for metric in metrics)))
    worse = False
    for workload, cells in rows:
        print("%-20s %s" % (workload, "  ".join(
            "%-26s" % ("%s %+.1f%%" % (label, 100 * relative))
            for _, label, relative in cells)))
        worse = worse or any(label == "worse" for _, label, _ in cells)
    print("runs: %s" % ", ".join(
        "%s %d vs %d" % (workload, len(base_runs[workload]),
                         len(change_runs[workload]))
        for workload, _ in rows))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
