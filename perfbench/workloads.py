"""The three workloads: inputs from a seed, one timed operation, its check.

A workload's ``setup(seed)`` makes every input of one process's share of a
run, from a sequence of ints (the run's seed and the process's number), and
returns a list of rounds, each a list of operations; the process cycles
through them.
``run`` performs one operation (the only timed code); ``check`` compares
its output with references computed here, and is not timed. The one figure
also taken from ranknet is `analytics.comparator_coefficients`, which the
prime network's per-arity counts must match as well as the recursion here.

Sizes are stratified log-uniform: a round has one operation in each of K
equal slices of [log lo, log hi], at a point drawn once per slice, so the
sizes are many distinct N spread evenly over the range. Slices come in
threes, one per builder, and each three shares a factor class. Every round
runs the same sizes with fresh inputs drawn from the seed. The size schedule
does not depend on the seed: two runs time the same operations, and their
figures differ by machine noise, not by which sizes a seed happened to pick
or by how many rounds fit in the run.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

BUILDERS = ("binary", "divisor", "prime")

# Factor class of each three slices, smallest N first (a workload with
# fewer slices uses the first entries), so that the prime recursion meets
# prime N, prime powers (2^k, 3^k, p^2), 3-smooth N (2^a 3^b) and two-prime
# products, as well as unconstrained N. A prime N makes a one-comparator
# divisor or prime network, cheap to build: the two triples of prime N
# above 64 put sort_cold requests across the step that the thread pool
# adds at N = 64, where the median lies, instead of leaving a gap there.
CLASSES = (
    "any", "smooth", "semiprime", "prime_power", "prime", "any",
    "prime", "smooth", "prime", "semiprime", "prime_power", "smooth",
)


def spf(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def factors(n: int) -> list[int]:
    out = []
    while n > 1:
        p = spf(n)
        out.append(p)
        n //= p
    return out


def in_class(n: int, cls: str) -> bool:
    f = factors(n)
    if cls == "prime":
        return len(f) == 1
    if cls == "smooth":
        return set(f) <= {2, 3}
    if cls == "semiprime":
        return len(f) == 2 and f[0] != f[1]
    if cls == "prime_power":
        return len(f) >= 2 and len(set(f)) == 1
    return True


@functools.lru_cache(maxsize=None)
def members(cls: str, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(n for n in range(lo, hi + 1) if in_class(n, cls))


def slice_sizes(lo: int, hi: int, k: int) -> list[int]:
    """One size in each of k equal slices of [log lo, log hi].

    A size moves to the nearest member of its class inside its own slice,
    and stays put when the slice has none, so snapping never moves work
    from one slice to another.
    """
    u = np.random.default_rng(0).random(k)
    span = math.log(hi / lo)
    sizes = []
    for i in range(k):
        target = lo * math.exp(span * (i + u[i]) / k)
        first = max(lo, math.ceil(lo * math.exp(span * i / k)))
        last = min(hi, math.floor(lo * math.exp(span * (i + 1) / k)))
        near = members(CLASSES[i // 3], first, last)
        if not near:
            near = (min(max(round(target), lo), hi),)
        sizes.append(min(near, key=lambda n: abs(math.log(n / target))))
    return sizes


def ref_rank(values) -> list[int]:
    """Stable rank with (value, index) keys; Python compares int and float exactly."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    rank = [0] * len(values)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def ref_rank_np(x: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.arange(x.size), x))
    rank = np.empty(x.size, dtype=np.int64)
    rank[order] = np.arange(x.size)
    return rank


def maundy(n: int, memo={1: 0}) -> int:
    """a(n) = max over d | n, d > 1 of d * a(n / d) + 1 (OEIS A006022)."""
    if n not in memo:
        memo[n] = max(d * maundy(n // d) + 1 for d in range(2, n + 1) if n % d == 0)
    return memo[n]


@dataclass
class Op:
    n: int
    builder: str
    data: object  # (input path, values) or (network, keys) or keys
    probe: bool = False  # a request that fails on a known fault


# ---------------------------------------------------------------------------
# sort_cold: one-shot `ranknet sort` calls; each builds a fresh network


class SortCold:
    """`cli.main(["sort", ...])` in process on pre-written input files."""

    LO, HI, K = 8, 1024, 24
    POOL = 8  # rounds of distinct inputs; later rounds reuse them in turn
    PROBES = ("py", "pool")  # host-speed probes that scale its times
    KINDS = ("float", "int_ties", "mixed")

    # Integers above 2**53 that differ but round to one float64, larger
    # first, mixed with decimals. The seed does not change this request.
    PROBE = [
        2**53 + 1, 2**53, 0.5, 2**53 + 4, 2**53 + 3, -1.25,
        2**60 + 1, 2**60, 3.75, 2**54 + 2, 2**54 + 1, 0.125,
    ]

    def __init__(self, mods, workdir):
        self.cli = mods["cli"]
        self.workdir = workdir

    def setup(self, seed):
        rng = np.random.default_rng([*seed, 1])
        sizes = slice_sizes(self.LO, self.HI, self.K)
        rounds = []
        for r in range(self.POOL):
            ops = []
            for i, n in enumerate(sizes):
                kind = self.KINDS[(i // 3) % len(self.KINDS)]
                values = self._values(rng, n, kind)
                path = os.path.join(self.workdir, f"in_{r}_{i}.txt")
                with open(path, "w") as fh:
                    fh.write(",".join(_text(v) for v in values) + "\n")
                ops.append(Op(n, BUILDERS[i % 3], (path, values)))
            probe_path = os.path.join(self.workdir, f"probe_{r}.txt")
            with open(probe_path, "w") as fh:
                fh.write("\n".join(_text(v) for v in self.PROBE) + "\n")
            ops.append(Op(len(self.PROBE), BUILDERS[r % 3], (probe_path, self.PROBE), True))
            rounds.append(ops)
        return rounds

    @staticmethod
    def _values(rng, n, kind):
        if kind == "float":
            return [float(v) for v in rng.uniform(-1e3, 1e3, n)]
        if kind == "int_ties":
            return [int(v) for v in rng.integers(-n // 4, n // 4 + 1, n)]
        # small integers and short decimals, exact in float64 after parsing
        ints = rng.integers(-50, 51, n)
        halves = rng.random(n) < 0.5
        return [int(v) if h else float(v) + 0.25 for v, h in zip(ints, halves)]

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(["sort", "--algo", op.builder, "--input", op.data[0]])
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        values = op.data[1]
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        if code != 0 or set(lines) != {"pi", "sorted"}:
            return False
        rank = ref_rank(values)
        if [int(t) for t in lines["pi"].split(",")] != rank:
            return False
        expect = [None] * len(values)
        for i, r in enumerate(rank):
            expect[r] = values[i]
        printed = [_parse(t) for t in lines["sorted"].split(",")]
        return len(printed) == len(expect) and all(a == b for a, b in zip(printed, expect))


def _text(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _parse(tok: str):
    try:
        return int(tok)
    except ValueError:
        return float(tok)


# ---------------------------------------------------------------------------
# execute_warm: fixed networks, fresh keys (the paper's model)


class ExecuteWarm:
    """`engine.execute` and `engine.apply_permutation` on prebuilt networks."""

    # Execution cost grows as N^2 at the top, so the few largest networks
    # stand apart. HI and K put the median and the 90th percentile among
    # networks of close cost: with N up to 1024 and K = 36 the 90th
    # percentile lay between 3 ms and 6 ms networks and spread 0.23 over
    # five runs.
    LO, HI, K = 8, 724, 33
    POOL = 64  # rounds of pre-generated keys; later rounds reuse them in turn
    PROBES = ("pool", "thr")
    KINDS = ("uniform", "ties", "presorted", "reversed")

    def __init__(self, mods, workdir):
        self.netbuild = mods["netbuild"]
        self.engine = mods["engine"]

    def setup(self, seed):
        rng = np.random.default_rng([*seed, 2])
        grid = [(n, BUILDERS[i % 3]) for i, n in enumerate(slice_sizes(self.LO, self.HI, self.K))]
        nets = []
        for n, builder in grid:
            net = self.netbuild.build_network(n, builder)
            self.engine.execute(net, rng.random(n))  # lays out the index arrays
            nets.append(net)
        order = np.random.default_rng(0).permutation(len(grid))
        rounds = []
        for r in range(self.POOL):
            ops = []
            for j in order:
                n, builder = grid[j]
                kind = self.KINDS[(j + r) % len(self.KINDS)]
                ops.append(Op(n, builder, (nets[j], self._keys(rng, n, kind))))
            rounds.append(ops)
        return rounds

    @staticmethod
    def _keys(rng, n, kind):
        if kind == "ties":
            return rng.integers(0, max(2, n // 8), n)
        x = rng.random(n)
        if kind == "presorted":
            return np.sort(x)
        if kind == "reversed":
            return np.sort(x)[::-1].copy()
        return x

    def run(self, op):
        net, x = op.data
        pi = self.engine.execute(net, x)
        return pi, self.engine.apply_permutation(x, pi)

    def check(self, op, result):
        pi, s = result
        x = op.data[1]
        if pi.shape != x.shape or np.bincount(pi, minlength=op.n).max(initial=0) != 1:
            return False
        if not np.array_equal(pi, ref_rank_np(x)):
            return False
        return bool(np.all(s[1:] >= s[:-1])) and np.array_equal(np.sort(x), s)


# ---------------------------------------------------------------------------
# audit: the verify/stats path


class Audit:
    """Build, validate, JSON round trip, per-level table and profile."""

    # K is odd, so that the median lies inside one size's cluster of
    # operation times, not on the boundary between two
    LO, HI, K = 8, 512, 27
    POOL = 16
    PROBES = ("py", "pool")

    def __init__(self, mods, workdir):
        self.netbuild = mods["netbuild"]
        self.engine = mods["engine"]
        self.analytics = mods["analytics"]

    def setup(self, seed):
        rng = np.random.default_rng([*seed, 3])
        sizes = slice_sizes(self.LO, self.HI, self.K)
        return [
            [Op(n, BUILDERS[i % 3], rng.random(n)) for i, n in enumerate(sizes)]
            for _ in range(self.POOL)
        ]

    def run(self, op):
        nb = self.netbuild
        net = nb.build_network(op.n, op.builder)
        report = nb.validate_network(net)
        text = nb.network_to_json(net)
        back = nb.network_from_json(text)
        table = self.engine.partial_rank_table(net, op.data)
        profile = self.analytics.complexity_profile(op.n)
        return report, text, back, table, profile

    def check(self, op, result):
        report, text, back, table, profile = result
        n = op.n
        doc = json.loads(text)
        if not report.ok or doc["n"] != n or doc["builder"] != op.builder:
            return False
        if self.netbuild.network_to_json(back) != text:
            return False
        levels = [[c["indices"] for c in level] for level in doc["levels"]]
        if not covers_pairs_once(levels, n):
            return False
        per_arity: dict = {}
        for level in levels:
            for idx in level:
                per_arity[len(idx)] = per_arity.get(len(idx), 0) + 1
        if (len(levels), per_arity) != expected_counts(n, op.builder):
            return False
        if op.builder == "prime" and per_arity != self.analytics.comparator_coefficients(n):
            return False
        rank = ref_rank_np(op.data)
        cols = sum(np.asarray(col, dtype=np.int64) for _, col in table.columns)
        if not (np.array_equal(cols, rank) and np.array_equal(table.total, rank)):
            return False
        return profile.partial_rank_count == maundy(n) and (
            profile.binary_equivalent == n * (n - 1) // 2
        )


def covers_pairs_once(levels, n: int) -> bool:
    """Every one of the N(N-1)/2 unordered pairs lies in exactly one comparator."""
    by_arity: dict = {}
    for level in levels:
        for idx in level:
            by_arity.setdefault(len(idx), []).append(idx)
    counts = np.zeros(n * n, dtype=np.int64)
    for k, rows in by_arity.items():
        a = np.asarray(rows, dtype=np.int64)
        if k < 2 or a.min() < 0 or a.max() >= n:
            return False
        iu, ju = np.triu_indices(k, 1)
        lo = np.minimum(a[:, iu], a[:, ju])
        hi = np.maximum(a[:, iu], a[:, ju])
        if np.any(lo == hi):
            return False
        counts += np.bincount((lo * n + hi).ravel(), minlength=n * n)
    iu, ju = np.triu_indices(n, 1)
    return bool(np.all(counts[iu * n + ju] == 1)) and int(counts.sum()) == n * (n - 1) // 2


def prime_arity_counts(n: int) -> dict:
    """Comparators per arity of the prime network: for N = d * D with d the
    smallest prime factor, d sub-networks of size D, then D levels of D
    d-ary comparators; a prime N is one N-ary comparator."""
    d = spf(n)
    if d == n:
        return {n: 1}
    counts = {k: d * c for k, c in prime_arity_counts(n // d).items()}
    counts[d] = counts.get(d, 0) + (n // d) ** 2
    return counts


def expected_counts(n: int, builder: str) -> tuple[int, dict]:
    """(levels, comparators per arity) the builder must produce."""
    if builder == "binary":
        m = n + n % 2
        return m - 1, {2: n * (n - 1) // 2}
    if builder == "divisor":
        d = spf(n)
        if d == n:
            return 1, {n: 1}
        big = n // d
        counts = {big: d}
        counts[d] = counts.get(d, 0) + big * big
        return big + 1, counts
    return maundy(n), prime_arity_counts(n)


WORKLOADS = {"sort_cold": SortCold, "execute_warm": ExecuteWarm, "audit": Audit}
