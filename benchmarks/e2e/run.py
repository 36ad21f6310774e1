"""bench_e2e: one measured, per-layer-attributed run of the paper pipeline.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload paper-cold-1w --seed 7 \\
        --seconds 24 --trace 0 [--out DIR]

Each workload starts child interpreters (``workloads.py``) with every
``REPRO_*`` variable removed, gathers their raw numbers, checks the
correctness gates, prints every metric by name with its unit, writes a
JSON result (with provenance) under ``--out`` and prints one JSON object
as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of one
untraced and one traced unit of the workload. Any failed gate makes the
run exit non-zero with no numbers. See README.md.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "workloads.py")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_OUT = os.path.join(ROOT, ".e2e_out")

#: The seed whose output digests are pinned in expected.json.
DEFAULT_SEED = 20230113

#: Per-repetition input sizes of the paper pipeline.
PIPELINE_SIZES = {
    "universe": 7000,        # ~160 selected apps
    "static_apps": 128,      # static study, first 128 selected
    "sites": 20,             # crawl: 10 WebView-IAB apps x 20 sites
    "impact_apps": 1000,     # impact census over the top 1K
    "endpoint_apps": 128,    # endpoint census + cross-validation
    "label_queries": 64,     # nutrition labels in the paper-mix
    "query_rounds": 3,       # cache-bypassing paper-mix rounds per rep
}

#: Workload name -> child spec template.
WORKLOADS = {
    "paper-cold-1w": {"kind": "paper-cold", "workers": 1,
                      "sizes": PIPELINE_SIZES},
    "paper-cold-2w": {"kind": "paper-cold", "workers": 2,
                      "sizes": PIPELINE_SIZES},
    "longitudinal-delta": {"kind": "longitudinal", "sizes": {
        "universe": 12_000, "max_apps": 200, "timelines": 3,
        "label_queries": 16, "query_rounds": 2,
    }},
    "serve": {"kind": "serve", "setups": 5, "sizes": dict(
        PIPELINE_SIZES, batch_share=0.5, read_share=0.15, ingest_rate=4.0,
    )},
}

#: Fewest units (repetitions, iterations) behind a reported median.
MIN_UNITS = 3

#: A workload still running after this many seconds is stopped and fails.
RUN_TIMEOUT_S = 160

#: End-to-end metrics: name -> (unit, better). Set-up and batch are CPU
#: seconds: on a shared two-core host their wall clock swings with the
#: co-tenants' load (see README.md, "Steadiness").
END_TO_END = {
    "setup_s": ("s", "lower"),
    "batch_cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

STUDIES = ("static", "crawl", "impact", "endpoints")

#: Per-layer metrics: name -> (unit, better), in report order.
PER_LAYER = dict(
    [
        ("static_apps_per_s", ("apps/s", "higher")),
        ("crawl_visits_per_s", ("visits/s", "higher")),
        ("impact_apps_per_s", ("apps/s", "higher")),
        ("endpoints_apps_per_s", ("apps/s", "higher")),
        ("setup_wall_s", ("s", "lower")),
        ("batch_wall_s", ("s", "lower")),
        ("query_p50_ms", ("ms", "lower")),
        ("query_p99_ms", ("ms", "lower")),
        ("queries_per_s", ("queries/s", "higher")),
        ("ingest_p50_ms", ("ms", "lower")),
        ("serve.mixed_query_p50_ms", ("ms", "lower")),
        ("serve.mixed_query_p99_ms", ("ms", "lower")),
        ("serve.mixed_queries_per_s", ("queries/s", "higher")),
        ("serve.hit_ratio", ("ratio", "higher")),
        ("serve.hit_p50_ms", ("ms", "lower")),
        ("serve.miss_p50_ms", ("ms", "lower")),
        ("serve.ingest_lag_ms", ("ms", "lower")),
    ]
    + [("exec.%s.%s" % (study, figure), ("s", "lower"))
       for study in STUDIES
       for figure in ("measured_s", "simulated_s", "gap_s", "worker_busy_s")]
    + [
        ("exec.steals", ("count", "lower")),
        ("exec.chunks_repaired", ("count", "lower")),
        ("exec.tasks_quarantined", ("count", "lower")),
        ("exec.worker_peak_rss_mb", ("MB", "lower")),
        ("exec.cache.outcome_hit_ratio", ("ratio", "higher")),
        ("exec.cache.class_hit_ratio", ("ratio", "higher")),
        ("exec.cache.summary_hit_ratio", ("ratio", "higher")),
        ("web.script_cache_hit_ratio", ("ratio", "higher")),
        ("trace.overhead_ratio", ("ratio", "lower")),
        ("trace.unattributed_share", ("ratio", "lower")),
    ]
    + [(layer + suffix, unit)
       for layer in trace.LAYERS
       for suffix, unit in ((".self_s", ("s", "lower")),
                            (".calls", ("count", "lower")))]
)


class BenchError(RuntimeError):
    """A child failed or a correctness gate did not hold."""


# -- statistics ----------------------------------------------------------------


def percentile(values, share):
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def query_metrics(latencies, prefix="query"):
    """p50/p99 (ms) and closed-loop throughput of one query stream."""
    if not latencies:
        raise BenchError("no queries were measured")
    return {
        prefix + "_p50_ms": 1000 * percentile(latencies, 0.50),
        prefix + "_p99_ms": 1000 * percentile(latencies, 0.99),
        prefix.replace("query", "queries") + "_per_s":
            len(latencies) / sum(latencies),
    }


# -- child processes -------------------------------------------------------------


def child_env(workdir):
    """The parent's environment minus ``REPRO_*``, pointed at ``src``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "TMPDIR": workdir,
        # Ingests run `git describe`; keep git inside the checkout.
        "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT),
    })
    return env


def spawn(spec, workdir):
    """Run one child to completion; returns its JSON result.

    The child is stopped when the workload's deadline passes.
    """
    spec = dict(spec, workdir=workdir, spawned_at=time.time())
    proc = subprocess.Popen(
        [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
        env=child_env(workdir), stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, spec["deadline"] - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s ran past %ds" % (spec["workload"],
                                              RUN_TIMEOUT_S))
    finally:
        stop_session(proc)
    if proc.returncode != 0:
        raise BenchError("%s child exited with %d" % (spec["workload"],
                                                      proc.returncode))
    lines = stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1])


def stop_session(proc, timeout=10.0):
    """Kill what is left of a child's session (its pool workers share
    it) and wait until the child and the session are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# -- workloads -------------------------------------------------------------------


def end_to_end(units, rss_mb):
    """End-to-end metrics from per-unit samples (medians), plus the raw
    samples for the result file.

    ``units`` maps ``setup_s``/``setup_cpu_s``/``batch_s``/``batch_cpu_s``
    to one value per unit; set-up and batch are gated in CPU seconds.
    """
    metrics = {
        "setup_s": statistics.median(units["setup_cpu_s"]),
        "batch_cpu_s": statistics.median(units["batch_cpu_s"]),
        "peak_rss_mb": statistics.median(rss_mb),
    }
    return metrics, dict(units, rss_mb=rss_mb)


def unit_metrics(setup_s, batch_s, queries):
    """Per-layer wall-clock figures of one untraced unit."""
    metrics = {"setup_wall_s": setup_s, "batch_wall_s": batch_s}
    metrics.update(query_metrics(queries))
    return metrics


def run_paper_cold(spec, seconds, workdir):
    """Fresh-interpreter repetitions while they fit in ``seconds``; a
    traced run makes one untraced and one traced repetition."""
    traced = "trace_path" in spec
    untraced = {key: value for key, value in spec.items()
                if key != "trace_path"}
    reps, durations = [], []
    started = time.monotonic()
    while len(reps) < (1 if traced else spec["min_units"]) or (
            not traced and time.monotonic() - started
            + statistics.median(durations) <= seconds):
        began = time.monotonic()
        reps.append(spawn(untraced, workdir))
        durations.append(time.monotonic() - began)
    check_digests(spec, [rep["digests"] for rep in reps])
    attempted = sum(rep["attempted"] for rep in reps)
    if not traced:
        metrics, raw = end_to_end(
            {key: [rep[key] for rep in reps] for key in
             ("setup_s", "setup_cpu_s", "batch_s", "batch_cpu_s")},
            [rep["rss_mb"] for rep in reps])
        raw["digests"] = reps[0]["digests"]
        return metrics, raw, attempted

    rep = reps[0]
    traced_rep = spawn(spec, workdir)
    check_digests(spec, [traced_rep["digests"]])
    metrics = layer_metrics(traced_rep["trace"])
    metrics.update(unit_metrics(rep["setup_s"], rep["batch_s"],
                                rep["query_s"]))
    for study in STUDIES:
        for figure, value in rep["exec"][study].items():
            metrics["exec.%s.%s" % (study, figure)] = value
    names = ("static_apps_per_s", "crawl_visits_per_s", "impact_apps_per_s",
             "endpoints_apps_per_s")
    for name, study in zip(names, STUDIES):
        metrics[name] = rep["counts"][study] / rep["stage_s"][study]
    for name, value in rep["exec_counts"].items():
        metrics["exec." + name] = value
    metrics["exec.worker_peak_rss_mb"] = rep["worker_rss_mb"]
    metrics["ingest_p50_ms"] = 1000 * statistics.median(rep["ingest_s"])
    caches = rep["caches"]
    metrics["exec.cache.outcome_hit_ratio"] = caches["outcome_hit_ratio"]
    metrics["exec.cache.class_hit_ratio"] = caches["class_hit_ratio"]
    metrics["exec.cache.summary_hit_ratio"] = caches["summary_hit_ratio"]
    metrics["web.script_cache_hit_ratio"] = caches["script_cache_hit_ratio"]
    metrics["trace.overhead_ratio"] = traced_rep["batch_s"] / rep["batch_s"]
    raw = {"batch_s": [rep["batch_s"], traced_rep["batch_s"]],
           "trace_wall_s": traced_rep["trace"]["wall_s"]}
    return metrics, raw, attempted + traced_rep["attempted"]


def run_longitudinal(spec, seconds, workdir):
    """One child: iterations while they fit, plus a traced one.

    An untraced child runs at least one iteration more than it has
    timelines, so the first timeline is regenerated and checked.
    """
    traced = "trace_path" in spec
    min_units = max(spec["min_units"], spec["sizes"]["timelines"] + 1)
    out = spawn(dict(spec, seconds=0 if traced else seconds,
                     min_units=1 if traced else min_units), workdir)
    iterations = out["iterations"]
    expected = load_expected()["longitudinal-delta"]
    if spec["seed"] == expected["seed"] \
            and expected["sizes"] == spec["sizes"] \
            and iterations[0]["digests"] != expected["digests"]:
        raise BenchError("longitudinal outputs differ from expected.json")
    attempted = sum(it["attempted"] for it in iterations)
    if not traced:
        metrics, raw = end_to_end({
            "setup_s": [it["setup_s"] for it in iterations],
            "setup_cpu_s": [it["setup_cpu_s"] for it in iterations],
            "batch_s": [s for it in iterations for s in it["snapshot_s"]],
            "batch_cpu_s": [s for it in iterations
                            for s in it["snapshot_cpu_s"]],
        }, [out["rss_mb"]])
        raw["digests"] = iterations[0]["digests"]
        return metrics, raw, attempted

    untraced, traced_it = iterations[0], out["traced"]
    metrics = layer_metrics(out["trace"])
    metrics.update(unit_metrics(untraced["setup_s"],
                                statistics.median(untraced["snapshot_s"]),
                                untraced["query_s"]))
    metrics["ingest_p50_ms"] = 1000 * statistics.median(untraced["ingest_s"])
    metrics["exec.cache.outcome_hit_ratio"] = \
        untraced["caches"]["outcome_hit_ratio"]
    metrics["exec.cache.class_hit_ratio"] = \
        untraced["caches"]["class_hit_ratio"]
    metrics["trace.overhead_ratio"] = (sum(traced_it["snapshot_s"])
                                       / sum(untraced["snapshot_s"]))
    raw = {"batch_s": untraced["snapshot_s"] + traced_it["snapshot_s"],
           "trace_wall_s": out["trace"]["wall_s"]}
    return metrics, raw, attempted + traced_it["attempted"]


def run_serve(spec, seconds, workdir):
    """One child: inputs, set-ups, then the phases (twice when traced)."""
    traced = "trace_path" in spec
    out = spawn(dict(spec, seconds=seconds / 2 if traced else seconds),
                workdir)
    if not traced:
        metrics, raw = end_to_end({
            "setup_s": out["setup_s"],
            "setup_cpu_s": out["setup_cpu_s"],
            "batch_s": out["pass_s"],
            "batch_cpu_s": out["pass_cpu_s"],
        }, [out["rss_mb"]])
        return metrics, raw, out["attempted"]

    metrics = layer_metrics(out["trace"])
    metrics.update(unit_metrics(statistics.median(out["setup_s"]),
                                statistics.median(out["pass_s"]),
                                out["read_s"]))
    metrics.update(query_metrics(out["mixed_s"], "serve.mixed_query"))
    metrics.update({
        "serve.hit_ratio": len(out["hit_s"]) / len(out["mixed_s"]),
        "serve.hit_p50_ms": (1000 * percentile(out["hit_s"], 0.5)
                             if out["hit_s"] else 0.0),
        "serve.miss_p50_ms": (1000 * percentile(out["miss_s"], 0.5)
                              if out["miss_s"] else 0.0),
        "serve.ingest_lag_ms": 1000 * statistics.median(out["ingest_lag_s"]),
        "ingest_p50_ms": 1000 * statistics.median(out["ingest_s"]),
        "trace.overhead_ratio": (statistics.mean(out["traced"]["read_s"])
                                 / statistics.mean(out["read_s"])),
    })
    raw = {"read_mean_s": [statistics.mean(out["read_s"]),
                           statistics.mean(out["traced"]["read_s"])],
           "trace_wall_s": out["trace"]["wall_s"]}
    return metrics, raw, out["attempted"] + out["traced"]["attempted"]


RUNNERS = {
    "paper-cold": run_paper_cold,
    "longitudinal": run_longitudinal,
    "serve": run_serve,
}


def layer_metrics(summary):
    """Every per-layer metric, zero where the workload does not reach it,
    with the traced run's self time and call count per layer."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer, (self_s, calls) in summary["layers"].items():
        metrics[layer + ".self_s"] = self_s
        metrics[layer + ".calls"] = calls
    metrics["trace.unattributed_share"] = (summary["unattributed_s"]
                                           / summary["wall_s"])
    return metrics


# -- correctness gates across repetitions and runs ---------------------------------


def load_expected():
    with open(EXPECTED) as handle:
        return json.load(handle)


def check_digests(spec, digests_list):
    """Every repetition agrees; the pinned seed matches expected.json;
    and 1-worker and 2-worker runs of one seed agree across invocations
    (recorded per source tree under the output directory)."""
    workload, seed = spec["workload"], spec["seed"]
    first = digests_list[0]
    for other in digests_list[1:]:
        if other != first:
            raise BenchError("%s repetitions produced different outputs"
                             % workload)
    expected = load_expected()["paper-cold"]
    if seed == expected["seed"] and expected["sizes"] == spec["sizes"] \
            and first != expected["digests"]:
        raise BenchError("%s outputs differ from expected.json: %s" % (
            workload, sorted(k for k in first
                             if first[k] != expected["digests"].get(k))))
    record = os.path.join(spec["out"], "digests", "%s-%s.json"
                          % (source_hash()[:16], seed))
    if os.path.exists(record):
        with open(record) as handle:
            seen = json.load(handle)
        if seen["sizes"] == spec["sizes"] and seen["digests"] != first:
            raise BenchError("%s outputs differ from %s at seed %d"
                             % (workload, seen["workload"], seed))
    else:
        os.makedirs(os.path.dirname(record), exist_ok=True)
        with open(record, "w") as handle:
            json.dump({"workload": workload, "sizes": spec["sizes"],
                       "digests": first}, handle)


# -- provenance ---------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def source_hash():
    """SHA-256 over every file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def _git(*args):
    try:
        proc = subprocess.run(
            ["git"] + list(args), cwd=ROOT, capture_output=True, timeout=30,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return None, None
    return proc.returncode, proc.stdout.decode("utf-8").strip()


def provenance(seed):
    code, commit = _git("rev-parse", "HEAD")
    tree_code, tree = _git("rev-parse", "HEAD:src")
    dirty_code, _ = _git("diff", "--quiet", "HEAD", "--", "src")
    return {
        "git_commit": commit if code == 0 else None,
        "src_tree": tree if tree_code == 0 else None,
        "src_dirty": None if dirty_code not in (0, 1) else dirty_code == 1,
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- entry point ----------------------------------------------------------------------


def run_workload(name, seed, seconds, traced, out_dir, sizes=None,
                 min_units=MIN_UNITS):
    """Run one workload; returns ``(metrics, raw values, attempted)``.

    ``sizes`` and ``min_units`` override the benchmark's own (the
    self-test passes tiny ones).
    """
    spec = dict(WORKLOADS[name], workload=name, seed=seed, out=out_dir,
                min_units=min_units,
                deadline=time.monotonic() + RUN_TIMEOUT_S)
    if sizes is not None:
        spec["sizes"] = sizes
    if traced:
        spec["trace_path"] = os.path.join(out_dir, "trace-%s.json" % name)
    workdir = os.path.join(out_dir, "tmp", "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics, raw, attempted = RUNNERS[spec["kind"]](spec, seconds,
                                                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    catalogue = PER_LAYER if traced else END_TO_END
    missing = sorted(set(catalogue) - set(metrics))
    if missing:
        raise BenchError("%s did not measure %s" % (name, missing))
    return {name_: {"value": metrics[name_], "unit": catalogue[name_][0]}
            for name_ in catalogue}, raw, attempted


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=sorted(WORKLOADS),
                        help="one or more workloads; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measured time per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for result and trace files")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind so every running child is stopped and reaped.
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench_e2e: no repro package under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    prov = provenance(args.seed)
    reported, attempted = {}, 0
    try:
        for name in names:
            metrics, raw, count = run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), out_dir)
            attempted += count
            for metric, entry in metrics.items():
                print("%-20s %-40s %14.6f %s" % (name, metric,
                                                  entry["value"],
                                                  entry["unit"]))
            result = {"workload": name, "seconds": args.seconds,
                      "trace": args.trace, "provenance": prov,
                      "metrics": metrics, "raw": raw,
                      "attempted": count}
            path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                                % (name, args.seed, args.trace))
            with open(path, "w") as handle:
                json.dump(result, handle, indent=1, sort_keys=True)
            if len(names) == 1:
                reported = metrics
            else:
                reported.update({"%s/%s" % (name, metric): entry
                                 for metric, entry in metrics.items()})
    except BenchError as exc:
        print("bench_e2e: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
