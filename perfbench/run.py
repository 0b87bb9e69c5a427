"""Benchmark entry point: one workload, closed loop, one client.

    python3 perfbench/run.py --workload sort_cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and from nowhere else. The run is split over the
PROCESSES fresh processes, one after another, each of which
imports the program, sets up once and measures its share of ``--seconds``;
this process merges them. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full result, and the spans of a traced run, are written
under ``perfbench/out/``.
"""

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import probes

# At least this many operations per run, split over the processes, so that
# ten or more lie beyond the 90th percentile
MIN_OPS = 100
# Fresh processes per run, one after another. Whether the pool's threads
# overlap on large networks is settled per process, and set-up is timed
# once per process, so more processes average both.
PROCESSES = 10
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "keys_per_s": "1/s", "cpu_ms_per_op": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description="ranknet benchmark: one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--spawned", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import ranknet from ./src of the checkout; None when it is not there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ranknet", "__init__.py")):
        return None
    sys.path.insert(0, src)
    from ranknet import analytics, cli, engine, netbuild

    return {"analytics": analytics, "cli": cli, "engine": engine, "netbuild": netbuild}


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timed_loop(workload, rounds, seconds, min_ops, tracer):
    """Whole rounds, cycling through `rounds`, until `seconds` of operation
    time and `min_ops` operations.

    Only `workload.run` is timed; checks and host-speed probe passes run
    between operations. Returns one record per operation: (round, n,
    builder, wall s, CPU s, probe passes before it), the probe
    passes, and the failures.
    """
    records, failed, wrong = [], 0, []
    elapsed = since_probe = 0.0
    # Set-up garbage is not collected inside a timed operation, and the
    # objects set-up leaves alive (inputs, references, prebuilt networks)
    # are frozen, so that a collection inside an operation traverses the
    # program's objects, not the benchmark's.
    gc.collect()
    gc.freeze()
    probe = probes.Probes(workload.PROBES)
    probe.run()
    r = 0
    while elapsed < seconds or len(records) < min_ops:
        for op in rounds[r % len(rounds)]:
            if tracer:
                tracer.op = len(records)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a failed operation, reported below
                result = exc
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer:
                tracer.op = None
            records.append((r, op.n, op.builder, t1 - t0, c1 - c0, probe.count()))
            elapsed += t1 - t0
            since_probe += t1 - t0
            try:
                ok = not isinstance(result, Exception) and workload.check(op, result)
            except Exception as exc:
                ok, result = False, exc
            del result
            if not ok:
                failed += 1
                if not op.probe:
                    wrong.append({"round": r, "n": op.n, "builder": op.builder})
            if since_probe >= probes.EVERY:
                probe.run()
                since_probe = 0.0
        r += 1
    probe.run()
    return records, probe.passes, failed, wrong


def run_part(args, mods):
    """One process's share: import, set up once, measure; print its result."""
    import spans
    import workloads

    tracer = spans.Tracer(mods) if args.trace else None
    if tracer:
        tracer.install()
        tracer.op = "setup"
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(mods, workdir)
        rounds = workload.setup([args.seed, args.part])
        setup_s = time.monotonic() - args.spawned  # process start to first operation
        if tracer:
            tracer.op = None
        records, passes, failed, wrong = timed_loop(
            workload, rounds, args.seconds, math.ceil(MIN_OPS / PROCESSES), tracer)
        del rounds
    part = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records, "passes": passes, "failed": failed, "wrong": wrong,
    }
    if tracer:
        tracer.uninstall()
        part["layers"] = tracer.metrics(len(records), 1, sum(rec[3] for rec in records))
        stem = f"{args.workload}-seed{args.seed}-part{args.part}"
        tracer.write(os.path.join(OUT, f"trace-{stem}.jsonl"))
    print(json.dumps(part))
    return 0


def end_to_end(parts):
    """Timing metrics over every operation of the run, pooled over parts.

    Every time is scaled to the reference host speed by the probe passes
    around it (probes.py); set-up by the first passes of its process.
    """
    walls, cpus, keys, setups = [], [], [], []
    for part in parts:
        passes = part["passes"]
        for _, n, _, wall, cpu, block in part["records"]:
            f_wall, f_cpu = probes.factors(passes, block)
            walls.append(wall * f_wall)
            cpus.append(cpu * f_cpu)
            keys.append(n)
        setups.append(part["setup_s"] * probes.factors(passes, 0)[0])
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(walls, 0.5) * 1e3,
        "latency_p90_ms": percentile(walls, 0.9) * 1e3,
        "keys_per_s": sum(keys) / sum(walls),
        "cpu_ms_per_op": sum(cpus) * 1e3 / len(cpus),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }


def per_layer(parts):
    """Per-operation layer figures weighted by each part's operations;
    set-up figures are per set-up, so a plain mean."""
    ops = [len(part["records"]) for part in parts]
    out = {}
    for name in parts[0]["layers"]:
        values = [part["layers"][name] for part in parts]
        if name.startswith("setup."):
            out[name] = statistics.fmean(values)
        else:
            out[name] = sum(v * n for v, n in zip(values, ops)) / sum(ops)
    return out


def main(argv=None):
    args = parse_args(argv)
    mods = load_program()
    if mods is None:
        print("error: run from the root of a ranknet checkout (no src/ranknet)",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.part is not None:
        return run_part(args, mods)

    # Stopped by SIGTERM, stop the running part too: subprocess.run kills
    # its child when an exception interrupts the wait.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parts = []
    for k in range(PROCESSES):
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--part", str(k), "--spawned", repr(spawned)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: part {k} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        parts.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    if args.trace:
        values = per_layer(parts)
        units = {name: spans.unit(name) for name in values}
    else:
        values = end_to_end(parts)
        units = UNITS
    result = {
        "correct": not any(part["wrong"] for part in parts),
        "attempted": sum(len(part["records"]) for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, parts=parts), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
