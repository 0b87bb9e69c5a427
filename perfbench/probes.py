"""Host-speed probes: fixed computations, timed between operations.

The shared 2-vCPU host this benchmark was written on changes speed by up to
a factor of two within minutes (other tenants on the same cores): the same
instructions then take twice the wall time and twice the CPU time. A probe
is a fixed piece of work that uses no ranknet code, so a change to the
program leaves it alone while a change of host speed moves it with the
operations. The timed loop runs a workload's probes every ``EVERY``
seconds of operation time. The host's speed around an operation is the
geometric mean of those probes' times, each the median of the passes
around it, and the operation's wall and CPU times are scaled to the
reference speed, at which that mean is ``REF_S`` seconds. The probes are

- ``py``: Python object churn (tuples built and dropped), the kind of work
  in network construction, layout, validation and JSON;
- ``pool``: numpy gathers, compares and ``bincount`` over the pairs of
  N = 512, fanned out over a fresh ``ThreadPoolExecutor`` of
  ``os.cpu_count()`` threads, as ``engine.execute`` does by default;
- ``thr``: the same at N = 64, six times over: mostly starting and joining
  the pool's threads, the cost of a small pooled ``execute``.

Each workload names the two that do its kind of work (``PROBES`` in
workloads.py): ``py`` and ``pool`` for the Python-bound ``sort_cold`` and
``audit``, ``pool`` and ``thr`` for ``execute_warm``, whose operations are
pool dispatch and numpy kernels. Over ten runs of each, recording all
three probes, these pairs left the smallest spread of the timing metrics
among every single probe, pair and the three together (README).
"""

from __future__ import annotations

import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# geometric mean probe time, wall and CPU, at the reference speed; it sets
# only the magnitude of the reported figures
REF_S = 0.004
EVERY = 0.25  # seconds of operation time between two probe passes
WINDOW = 2  # passes each side of an operation, besides the next, in its median

_N = 512


class Probes:
    def __init__(self, kinds):
        iu, ju = np.triu_indices(_N, 1)
        self.pairs = np.stack([iu, ju], axis=1)
        self.small = self.pairs[: 64 * 63 // 2]  # the pairs of N = 64
        self.x = np.random.default_rng(0).random(_N)
        self.workers = os.cpu_count() or 1
        self.passes: dict = {k: [] for k in kinds}  # (wall s, CPU s) per pass

    def _py(self):
        out = [tuple(range(j % 7, j % 7 + 3)) for j in range(8000)]
        del out

    def _accumulate(self, idx):
        v = self.x[idx]
        hi = (v[:, 0] > v[:, 1]).astype(np.int64)
        ranks = np.stack([hi, 1 - hi], axis=1)
        return np.bincount(idx.ravel(), weights=ranks.ravel(), minlength=_N)

    def _fan_out(self, pairs):
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return sum(pool.map(self._accumulate, np.array_split(pairs, self.workers)))

    def _pool(self):
        self._fan_out(self.pairs)

    def _thr(self):
        for _ in range(6):
            self._fan_out(self.small)

    def run(self):
        """One timed pass of each probe."""
        for kind in self.passes:
            fn = getattr(self, "_" + kind)
            c0 = time.process_time()
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            c1 = time.process_time()
            self.passes[kind].append((t1 - t0, c1 - c0))

    def count(self) -> int:
        return len(next(iter(self.passes.values())))


def factors(passes: dict, block: int) -> tuple[float, float]:
    """(wall, CPU) factors to the reference speed for an operation run after
    pass ``block - 1`` and before pass ``block``: the reference time over
    the geometric mean of the probes' median times around it."""
    log_wall = log_cpu = 0.0
    for runs in passes.values():
        near = runs[max(0, block - WINDOW):block + WINDOW + 1]
        log_wall += math.log(statistics.median(w for w, _ in near))
        log_cpu += math.log(statistics.median(c for _, c in near))
    k = len(passes)
    return REF_S / math.exp(log_wall / k), REF_S / math.exp(log_cpu / k)
