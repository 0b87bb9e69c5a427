"""Run the benchmark in alternating parent/change pairs and write BENCH_<number>.json.

    python3 tools/bench_pairs.py --number 10 --title "what the change does" \
        --claim sort_cold:keys_per_s --run sort_cold=10 --run audit=5

The change is the commit HEAD, the parent its first parent HEAD^. Both are
exported with ``git archive`` into a temporary directory, and every run
reads its own export only. Each pair runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` once in each export, the
parent first in the 1st, 3rd, ... pair and the change first in the others;
T and the metrics summarised are those of the parent's BENCHMARK.json, so
that every pair, and every BENCH file, runs the benchmark as the parent
defines it. The i-th ``--run`` workload takes seeds FIRST + 1000 i,
FIRST + 1000 i + 1, ... (``--first-seed``, default 1001).

``--claim WORKLOAD:METRIC`` names the gain the change claims, checked before
anything runs: a ``--run`` workload and one of the end-to-end metrics. The
summary records its pairs won and whether the gain rule holds: at least 9
in 10 pairs won, and a median gain larger than the parent's interquartile
range.

Each workload's summary also gives ``per_size_ms``: for each size N, the
median raw (not host-speed scaled) wall time of an operation on that size,
over all runs of each side, read from the full result that each run writes
into ``perfbench/out/`` of its export. Operations of one size are pooled
whatever their builder or request. A change in a median metric then shows
which sizes moved.

Each workload's summary also gives ``raw``: for each of latency_p50_ms,
latency_p90_ms, keys_per_s and cpu_ms_per_op, the median over each side's
runs of the metric as ``perfbench/run.py``'s ``end_to_end`` computes it from
the run's operation records, but unscaled by the host-speed probes. A change
in a scaled median that the raw one does not share came from the probes.
It is informational: the claim, ``regressions`` and ``unresolved`` read the
scaled metrics only.

Each workload's summary also gives ``peak_rss_by_part``: for each side, the
median over its runs of each part's ``peak_rss_mb``, in part order, read
from the same full result. A part's figure includes the memory of the
driver that starts it, which holds every earlier part's records, so it
shows how much of the run's ``peak_rss_mb`` is the driver's. It is
informational too, as ``raw`` is.

Each workload's summary also lists its ``regressions``: every end-to-end
metric whose change median is worse than the parent's by more than the
metric's ``bound`` in the parent's BENCHMARK.json, a fraction of the
parent's median, and ``failed_share`` when a larger share of the change's
operations failed. It lists as ``unresolved`` every end-to-end metric whose
parent runs spread wider than its bound, an interquartile range above that
fraction of the parent's median, unless every change run reads better than
every parent run: the pairs cannot tell such a metric unchanged.

Of the working tree, only the git repository is read. Written into it are
the summary, BENCH_<number>.json at the root, and every run's last output
line, appended to the ignored ``perfbench/out/bench-pairs-<number>.jsonl``.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METHOD = (
    "alternating pairs, parent first in the 1st, 3rd, ... pair and the change first in"
    " the others; both sides run from a git archive export of their commit; q1/median/q3"
    " are numpy's linear percentiles over the runs; change_wins counts pairs in which the"
    " change read better; median_change is (change - parent) / parent of the medians"
)


def parse_args(argv, metrics):
    """The options; a --claim must name a --run workload and one of metrics,
    the benchmark's end-to-end metric names."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--number", type=int, required=True, help="writes BENCH_<number>.json")
    p.add_argument("--title", required=True, help="what the change does, one line")
    p.add_argument("--run", action="append", required=True, metavar="WORKLOAD=PAIRS")
    p.add_argument("--first-seed", type=int, default=1001)
    p.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                   help="the metric the change claims a gain on, if any")
    args = p.parse_args(argv)
    args.runs = []
    for item in args.run:
        workload, _, pairs = item.partition("=")
        if not workload or not pairs.isdigit() or int(pairs) < 1:
            p.error(f"--run wants WORKLOAD=PAIRS, got {item!r}")
        args.runs.append((workload, int(pairs)))
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in dict(args.runs):
            p.error(f"--claim {args.claim!r}: the workload must be one of the --run"
                    f" workloads {[w for w, _ in args.runs]}")
        if metric not in metrics:
            p.error(f"--claim {args.claim!r}: the metric must be one of {list(metrics)}")
        args.claim = (workload, metric)
    return args


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def export(rev: str, into: str) -> str:
    """Extract the tree of commit rev into a new directory under into."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    path = os.path.join(into, sha[:12])
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(path, filter="data")
    return path


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parts(tree: str, workload: str, seed: int) -> list:
    """The parts of one run in tree, from the full result the run wrote
    under perfbench/out/."""
    path = os.path.join(tree, "perfbench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        return json.load(fh)["parts"]


def records(tree: str, workload: str, seed: int) -> list:
    """The operation records of one run in tree, (round, N, builder, wall s,
    cpu s, probe passes before it), pooled over its parts."""
    return [rec for part in parts(tree, workload, seed) for rec in part["records"]]


def peak_rss(tree: str, workload: str, seed: int) -> list:
    """The peak_rss_mb of each part of one run in tree, in part order."""
    return [part["peak_rss_mb"] for part in parts(tree, workload, seed)]


def walls(tree: str, workload: str, seed: int) -> dict:
    """The raw wall times in ms of every operation of one run in tree, by
    size N."""
    out: dict = {}
    for _, n, _, wall, *_ in records(tree, workload, seed):
        out.setdefault(n, []).append(wall * 1e3)
    return out


def raw(tree: str, workload: str, seed: int) -> dict:
    """The timing metrics of one run in tree, from its operation records as
    perfbench/run.py's end_to_end computes them, but unscaled."""
    recs = records(tree, workload, seed)
    times = [rec[3] for rec in recs]
    return {
        "latency_p50_ms": percentile(times, 0.5) * 1e3,
        "latency_p90_ms": percentile(times, 0.9) * 1e3,
        "keys_per_s": sum(rec[1] for rec in recs) / sum(times),
        "cpu_ms_per_op": sum(rec[4] for rec in recs) * 1e3 / len(recs),
    }


def raw_medians(sides: dict) -> dict:
    """{metric: {side: median}} for sides mapping "parent" and "change" to
    their runs' raw results."""
    return {name: {side: sig(percentile([r[name] for r in sides[side]], 0.5))
                   for side in ("parent", "change")} for name in sides["parent"][0]}


def rss_by_part(sides: dict) -> dict:
    """{side: [median MB of part 0, part 1, ...]} for sides mapping "parent"
    and "change" to their runs' peak_rss results."""
    return {side: [sig(percentile(part, 0.5)) for part in zip(*sides[side])]
            for side in ("parent", "change")}


def per_size(sides: dict) -> dict:
    """{N: {side: median ms}} for sides mapping "parent" and "change" to
    walls results pooled over their runs, N ascending; a size one side did
    not run has None."""
    sizes = sorted(set(sides["parent"]) | set(sides["change"]))
    return {str(n): {side: sig(percentile(sides[side][n], 0.5)) if n in sides[side] else None
                     for side in ("parent", "change")} for n in sizes}


def percentile(values, q: float) -> float:
    """numpy's default (linear) percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    return s[lo] + (s[min(lo + 1, len(s) - 1)] - s[lo]) * (pos - lo)


def sig(x: float) -> float:
    return float(f"{x:.5g}")


def summarize(metric: dict, parent: list, change: list) -> dict:
    quart = {side: {name: sig(percentile(runs, q))
                    for name, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75))}
             for side, runs in (("parent", parent), ("change", change))}
    sign = 1 if metric["better"] == "higher" else -1
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        **quart,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "median_change": round(
            (percentile(change, 0.5) - percentile(parent, 0.5)) / percentile(parent, 0.5), 4),
        "parent_iqr": sig(percentile(parent, 0.75) - percentile(parent, 0.25)),
        "parent_runs": [sig(v) for v in parent],
        "change_runs": [sig(v) for v in change],
    }


def judge(workload: str, metric: str, s: dict) -> dict:
    """The claim on s, a summarize result: the pairs it won, and whether the
    gain rule holds, which asks the change to win at least 9 in 10 pairs (a
    tie wins for neither) and its median to beat the parent's by more than
    the parent's interquartile range."""
    pairs = len(s["parent_runs"])
    sign = 1 if s["better"] == "higher" else -1
    gain = sign * (s["change"]["median"] - s["parent"]["median"])
    return {"workload": workload, "metric": metric, "pairs": pairs,
            "change_wins": s["change_wins"],
            "holds": 10 * s["change_wins"] >= 9 * pairs and gain > s["parent_iqr"]}


def regressions(metrics: dict, summaries: dict, attempted: dict, failed: dict) -> list:
    """The names of the end-to-end metrics, of metrics, whose summaries
    (summarize results) read worse on the change side by more than their
    bound, a fraction of the parent's median; then "failed_share" when the
    change failed a larger share of its attempted operations. attempted
    and failed map each side to its runs' counts."""
    out = []
    for name, metric in metrics.items():
        s = summaries[name]
        sign = 1 if metric["better"] == "higher" else -1
        loss = sign * (s["parent"]["median"] - s["change"]["median"])
        if loss > metric["bound"] * abs(s["parent"]["median"]):
            out.append(name)
    share = {side: sum(failed[side]) / max(1, sum(attempted[side])) for side in ("parent", "change")}
    if share["change"] > share["parent"]:
        out.append("failed_share")
    return out


def unresolved(metrics: dict, summaries: dict) -> list:
    """The names of the end-to-end metrics, of metrics, whose summaries
    (summarize results) have a parent interquartile range wider than their
    bound, a fraction of the parent's median, unless every change run
    reads better than every parent run."""
    out = []
    for name, metric in metrics.items():
        s = summaries[name]
        sign = 1 if metric["better"] == "higher" else -1
        better = min(sign * v for v in s["change_runs"]) > max(sign * v for v in s["parent_runs"])
        if s["parent_iqr"] > metric["bound"] * abs(s["parent"]["median"]) and not better:
            out.append(name)
    return out


def host() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    memory_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"cores": os.cpu_count(), "memory_gb": round(memory_gb),
            "python": platform.python_version(), "numpy": numpy or None}


def main(argv=None) -> int:
    bench = json.loads(git("show", "HEAD^:BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    args = parse_args(argv, metrics)
    log_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(log_dir, exist_ok=True)
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": export("HEAD^", tmp), "change": export("HEAD", tmp)}
        for i, (workload, pairs) in enumerate(args.runs):
            seeds = [args.first_seed + 1000 * i + j for j in range(pairs)]
            results = {"parent": [], "change": []}
            times = {"parent": {}, "change": {}}
            raws = {"parent": [], "change": []}
            rss = {"parent": [], "change": []}
            for j, seed in enumerate(seeds):
                order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    results[side].append(result)
                    for n, ms in walls(trees[side], workload, seed).items():
                        times[side].setdefault(n, []).extend(ms)
                    raws[side].append(raw(trees[side], workload, seed))
                    rss[side].append(peak_rss(trees[side], workload, seed))
                    print(f"{workload} seed {seed} {side}: {json.dumps(result)}", flush=True)
                    with open(os.path.join(log_dir, f"bench-pairs-{args.number}.jsonl"), "a") as fh:
                        fh.write(json.dumps(dict(result, workload=workload, seed=seed,
                                                 side=side)) + "\n")
            attempted = {s: [r["attempted"] for r in results[s]] for s in results}
            failed = {s: [r["failed"] for r in results[s]] for s in results}
            summaries = {
                name: summarize(metric, *([r["metrics"][name]["value"] for r in results[s]]
                                          for s in ("parent", "change")))
                for name, metric in metrics.items()
            }
            workloads[workload] = {
                "seeds": seeds,
                "pairs": pairs,
                "attempted": attempted,
                "failed": failed,
                "correct": all(r["correct"] for s in results for r in results[s]),
                "regressions": regressions(metrics, summaries, attempted, failed),
                "unresolved": unresolved(metrics, summaries),
                "metrics": summaries,
                "per_size_ms": per_size(times),
                "raw": raw_medians(raws),
                "peak_rss_by_part": rss_by_part(rss),
            }
    claim = None
    if args.claim:
        workload, metric = args.claim
        claim = judge(workload, metric, workloads[workload]["metrics"][metric])
    summary = {
        "change": args.title,
        "parent": git("rev-parse", "--short", "HEAD^").decode().strip(),
        "host": host(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                   " --trace 0",
        "method": METHOD,
        "claim": claim,
        "workloads": workloads,
    }
    out = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
