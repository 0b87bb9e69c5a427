"""Reference figures for the README: the np.argsort baseline and a layer grid.

    python3 perfbench/reference.py

Run from the root of a ranknet checkout. Two tables go to standard output:

1. For each workload, stable ``np.argsort`` on the keys of one round of that
   workload (seed 1): median and 90th-percentile time per
   operation and keys per second, the floor that any rank-summing network
   is compared with on a CPU.
2. Self time of each layer on the grid N in {8, 64, 512, 1024, 2048} x
   {binary, divisor, prime}: build,
   index layout, execute with the default workers and with one worker,
   apply_permutation and np.argsort; validation, the JSON round trip and the
   per-level table up to N = 1024 only, as they take tens of seconds beyond.

One network is alive at a time; the prime network at N = 2048 needs about
0.6 GB.
"""

import gc
import os
import statistics
import sys
import tempfile
import time

import numpy as np

import run as bench
import workloads

BUILDERS = workloads.BUILDERS
SEED = 1
GRID = (8, 64, 512, 1024, 2048)


def timed(fn, repeat):
    """Median wall time of `repeat` calls, in ms."""
    out = []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return statistics.median(out) * 1e3


def argsort_baseline(mods, seed):
    print("| workload | operations | argsort p50 ms | argsort p90 ms | keys/s |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=bench.OUT) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            state = cls(mods, workdir).setup([seed, 0])
            keys = []
            for op in state[0]:
                x = op.data[1] if name != "audit" else op.data
                keys.append(np.asarray(x, dtype=float if name == "sort_cold" else None))
            times = [timed(lambda: np.argsort(x, kind="stable"), 20) for x in keys]
            total = sum(times) / 1e3
            print(f"| {name} | {len(keys)} | {bench.percentile(times, 0.5):.4f} | "
                  f"{bench.percentile(times, 0.9):.4f} | "
                  f"{sum(x.size for x in keys) / total:.3g} |")
            del state


def layer_grid(mods, grid):
    nb, eng = mods["netbuild"], mods["engine"]
    cols = ["build", "arity_groups", "execute", "execute 1 worker", "apply_permutation",
            "np.argsort", "validate", "json round trip", "partial_rank_table"]
    print("| N | builder | " + " | ".join(f"{c} ms" for c in cols) + " |")
    print("|---|---|" + "---|" * len(cols))
    rng = np.random.default_rng(0)
    for n in grid:
        for builder in BUILDERS:
            gc.collect()
            x = rng.random(n)
            t = time.perf_counter()
            net = nb.build_network(n, builder)
            build = (time.perf_counter() - t) * 1e3
            t = time.perf_counter()
            net.arity_groups()
            layout = (time.perf_counter() - t) * 1e3
            repeat = 5 if n >= 1024 else 20
            pi = eng.execute(net, x)
            row = [build, layout,
                   timed(lambda: eng.execute(net, x), repeat),
                   timed(lambda: eng.execute(net, x, workers=1), repeat),
                   timed(lambda: eng.apply_permutation(x, pi), 20),
                   timed(lambda: np.argsort(x, kind="stable"), 20)]
            if n <= 1024:
                row += [timed(lambda: nb.validate_network(net), 1),
                        timed(lambda: nb.network_from_json(nb.network_to_json(net)), 1),
                        timed(lambda: eng.partial_rank_table(net, x), 3)]
            cells = [f"{v:.3g}" for v in row] + ["—"] * (len(cols) - len(row))
            print(f"| {n} | {builder} | " + " | ".join(cells) + " |", flush=True)
            del net


def main():
    mods = bench.load_program()
    if mods is None:
        print("error: run from the root of a ranknet checkout", file=sys.stderr)
        return 2
    os.makedirs(bench.OUT, exist_ok=True)
    argsort_baseline(mods, SEED)
    print()
    layer_grid(mods, GRID)
    return 0


if __name__ == "__main__":
    sys.exit(main())
