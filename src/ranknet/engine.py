"""Execute comparator networks: local stable ranks, scatter-add, reduce.

Each comparator computes the stable ranks of its slice of the input and the
engine adds them into a global integer accumulator, one arity at a time,
reading the per-arity index arrays that every network lays out when it is
made. These are column-major, so each index column is one contiguous array.
A comparator of arity k <= 5 adds, for each of its k(k-1)/2 column pairs,
one to the position that wins the pair (the larger key, or the later
position on a tie), so an input's rank is the number of pairs it wins; it
takes a group's rows in batches, small enough for its temporaries to stay
in cache. A wider one ranks each row with a stable argsort and scatters the
integer ranks with ``np.add.at``. Nothing on the rank path is a float. Integer
addition is associative and commutative, so the result does not depend on
the order in which comparators are evaluated.

The sum is the stable rank only when every pair of positions lies in exactly
one comparator. Builder output does by construction; any other network is
checked once, before its first use, and raises ValidationError if it does
not (DimensionError if the check's pair bitmap would exceed its budget).
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionError, PermutationError
from .netbuild import Network, _require_valid
from .rankcore import as_keys

__all__ = [
    "execute",
    "partial_rank_table",
    "apply_permutation",
    "PartialRankTable",
    "table_to_csv",
]


# Arity up to which a comparator's ranks are counted as pair wins. Above it
# one stable argsort per row beats k(k-1)/2 pair passes; a cutoff of 7
# gained nothing over 5 on a grid of networks of N = 8 to 724.
_PAIR_WIN_MAX_ARITY = 5

# Rows the pair-win kernel takes at a time. Each of its temporaries is then
# at most 64 KiB, under glibc's initial 128 KiB mmap threshold, so it comes
# from the heap and stays in cache. Whole-column temporaries were mapped and
# faulted in afresh on every call unless an earlier large free had raised
# the threshold: in a process that had only built a binary N = 365 network,
# execute took 2-2.5x as long as with the threshold raised.
_PAIR_WIN_ROWS = 8192


def _accumulate(acc: np.ndarray, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Add the stable local ranks of the comparators idx (m, k) into acc."""
    k = idx.shape[1]
    if k <= _PAIR_WIN_MAX_ARITY:
        for start in range(0, len(idx), _PAIR_WIN_ROWS):
            rows = idx[start : start + _PAIR_WIN_ROWS]
            # lo wins only when strictly greater: a tie goes to hi, the later position
            for i, j in combinations(range(k), 2):
                lo, hi = rows[:, i], rows[:, j]
                acc += np.bincount(hi - (x[lo] > x[hi]) * (hi - lo), minlength=acc.size)
    else:
        order = np.argsort(x[idx], axis=1, kind="stable")
        ranks = np.empty(idx.shape, dtype=np.int64)
        np.put_along_axis(ranks, order, np.arange(k, dtype=np.int64), axis=1)
        # 1-D and of equal length: numpy 2.4's add.at reads values it must
        # broadcast over 2-D indices out of bounds, and is slower on 2-D
        np.add.at(acc, idx.ravel(), ranks.ravel())
    return acc


def _keys(net: Network, x) -> np.ndarray:
    """The keys of x for net: the one entry of execute and partial_rank_table."""
    a = as_keys(x)
    if a.size != net.n:
        raise DimensionError(f"input length {a.size} != network size {net.n}")
    _require_valid(net)
    return a


def execute(net: Network, x, workers: int | None = None) -> np.ndarray:
    """Run the network on x and return the permutation vector.

    Equals the stable rank of x; a network whose pairs are not each covered
    exactly once raises ValidationError. Execution is serial:
    ``workers`` is accepted for compatibility and has no effect.
    """
    # Serial on purpose: on a 2-core host a thread pool was slower than this
    # loop at every N up to 1024 (15-28x at N = 64) and gained only from
    # N = 2048 on.
    a = _keys(net, x)
    acc = np.zeros(net.n, dtype=np.int64)
    for idx in net.arity_groups().values():
        _accumulate(acc, a, idx)
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
        (
            f"L{li}(C{level.arity})",
            _accumulate(np.zeros(net.n, dtype=np.int64), a, level.indices),
        )
        for li, level in enumerate(net.levels)
    ]
    total = sum((col for _, col in columns), np.zeros(net.n, dtype=np.int64))
    return PartialRankTable(net.n, columns, total)


def table_to_csv(table: PartialRankTable, x=None) -> str:
    """CSV layout mirroring the partial-rank tables: row per position."""
    if x is not None and len(x) != table.n:
        raise DimensionError(f"x has length {len(x)}, table has {table.n} rows")
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
    p = np.asarray(pi)
    if a.ndim != 1 or p.shape != a.shape:
        raise DimensionError("x and pi must be 1-D of equal length")
    if p.dtype.kind not in "iu":
        raise PermutationError(f"pi must hold integers, got dtype {p.dtype}")
    if not np.array_equal(np.sort(p), np.arange(a.size)):
        raise PermutationError("pi is not a permutation of 0..N-1")
    s = np.empty_like(a)
    s[p] = a
    return s
