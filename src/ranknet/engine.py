"""Execute comparator networks: local stable ranks, scatter-add, reduce.

Each comparator computes the stable ranks of its slice of the input and the
engine adds them into a global integer accumulator, one arity at a time,
reading the per-arity index arrays that every network lays out when it is
made. Integer addition is associative and commutative, so the result does
not depend on the order in which comparators are evaluated.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PermutationError
from .netbuild import Network
from .rankcore import as_keys

__all__ = [
    "execute",
    "partial_rank_table",
    "apply_permutation",
    "PartialRankTable",
    "table_to_csv",
]


def _local_ranks(vals: np.ndarray) -> np.ndarray:
    """Row-wise stable ranks of an (m, k) array of comparator inputs."""
    k = vals.shape[1]
    if k == 2:
        hi = (vals[:, 0] > vals[:, 1]).astype(np.int64)
        return np.stack([hi, 1 - hi], axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    ranks = np.empty(vals.shape, dtype=np.int64)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(k, dtype=np.int64), vals.shape), axis=1
    )
    return ranks


def _accumulate(x: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    ranks = _local_ranks(x[idx])
    # bincount with integer-valued weights is exact here: every partial sum
    # is a small integer, far below 2**53
    return np.bincount(idx.ravel(), weights=ranks.ravel(), minlength=n).astype(
        np.int64
    )


def _keys(net: Network, x) -> np.ndarray:
    a = as_keys(x)
    if a.size != net.n:
        raise DimensionError(f"input length {a.size} != network size {net.n}")
    return a


def execute(net: Network, x, workers: int | None = None) -> np.ndarray:
    """Run the network on x and return the permutation vector.

    Equals the stable rank of x for any valid network. Execution is serial:
    ``workers`` is accepted for compatibility and has no effect.
    """
    # Serial on purpose: on a 2-core host a thread pool was slower than this
    # loop at every N up to 1024 (15-28x at N = 64) and gained only from
    # N = 2048 on.
    a = _keys(net, x)
    acc = np.zeros(net.n, dtype=np.int64)
    for idx in net.arity_groups().values():
        acc += _accumulate(a, idx, net.n)
    return acc


@dataclass
class PartialRankTable:
    """Per-level partial ranks: one length-N column per level, summing to pi."""

    n: int
    columns: list[tuple[str, np.ndarray]]
    total: np.ndarray


def partial_rank_table(net: Network, x) -> PartialRankTable:
    """One partial-rank column per level, plus their sum (the permutation)."""
    a = _keys(net, x)
    columns = [
        (f"L{li}(C{level.arity})", _accumulate(a, level.indices, net.n))
        for li, level in enumerate(net.levels)
    ]
    total = sum((col for _, col in columns), np.zeros(net.n, dtype=np.int64))
    return PartialRankTable(net.n, columns, total)


def table_to_csv(table: PartialRankTable, x=None) -> str:
    """CSV layout mirroring the partial-rank tables: row per position."""
    buf = io.StringIO()
    w = csv.writer(buf)
    header = ["i"] + (["x"] if x is not None else [])
    header += [label for label, _ in table.columns] + ["pi"]
    w.writerow(header)
    for i in range(table.n):
        row = [i] + ([x[i]] if x is not None else [])
        row += [int(col[i]) for _, col in table.columns] + [int(table.total[i])]
        w.writerow(row)
    return buf.getvalue()


def apply_permutation(x, pi) -> np.ndarray:
    """Scatter x into sorted order: result[pi[i]] = x[i]."""
    a = np.asarray(x)
    p = np.asarray(pi, dtype=np.int64)
    if a.ndim != 1 or p.shape != a.shape:
        raise DimensionError("x and pi must be 1-D of equal length")
    if not np.array_equal(np.sort(p), np.arange(a.size)):
        raise PermutationError("pi is not a permutation of 0..N-1")
    s = np.empty_like(a)
    s[p] = a
    return s
