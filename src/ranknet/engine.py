"""Execute comparator networks: local stable ranks, scatter-add, reduce.

Each comparator computes the stable ranks of its slice of the input and the
engine adds them into a global integer accumulator. Nothing on the rank
path is a float. Integer addition is associative and commutative, so the
result does not depend on the order in which comparators are evaluated.

The sum is the stable rank only when every pair of positions lies in exactly
one comparator. A network that does carries a plan (netbuild), a list of
(run, rows) pairs, and the plan is the one thing execute runs. A builder's
network has its runs of levels (netbuild._runs) from the start, each with
its rows, by construction. Any other network is checked once, before its
first use; one that passes gets a plan of one run per arity group, its
whole group as rows, and one that fails raises ValidationError
(DimensionError if the check's pair bitmap would exceed its budget).

One loop, _run_plan, takes every run by its kind, for execute and for
``rank(x, builder)``, which passes the builder's runs without rows: so rank
gives the same result as executing the builder's network, without building
it or writing a single index. A block run of f-ary comparators w(j) is one
stable argsort of the rows of x viewed as (N/f, f), and its inverse. A run
with rows goes through the index kernel, _accumulate. Of rank's runs,
which have none, a cross run compares every key of each block of D with
every key of the later blocks of its block of dD, which are exactly the
pairs of its comparators, and the binary network's circle run compares
every pair. A compare is one boolean tile of at most _TILE_CELLS key pairs,
so memory stays O(N) plus a tile.

The index kernel reads the column-major (M, k) rows of a run, each index
column one contiguous array, by one of two routes, each a fixed handful of
numpy calls per batch of rows, batches small enough for the temporaries to
stay in cache. Many rows of arity k <= 5 add, for each of their k(k-1)/2
column pairs, one to the position that wins the pair (the larger key, or
the later position on a tie), so an input's rank is the number of pairs it
wins. Wider rows, and a run of few rows of any arity, are ranked by one
stable argsort per row, whose inverse permutation (a second argsort) gives
each row's ranks, scattered with ``np.add.at``. A pair pass costs about as
much as a whole sort of a few rows, so counting pair wins pays only over
many rows.

``partial_rank_table`` keeps each level's partial ranks apart, as the rows
of one (L, N) array. A batch of whole levels of one arity from netbuild's
one walk over levels (netbuild._level_batches) goes through the index
kernel at once: each level's positions are shifted by N times its place in
the batch (netbuild._shifted), so the batch's rows of the array are one
accumulator, and the keys are read from x tiled to the largest batch's length.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionError, PermutationError, ValidationError
from .netbuild import (
    Builder, Network, _array, _builder, _int64_array, _level_batches, _network, _require_valid,
    _runs, _shifted, _within_budget,
)
from .rankcore import as_keys

__all__ = [
    "execute",
    "rank",
    "partial_rank_table",
    "apply_permutation",
    "PartialRankTable",
    "table_to_csv",
]


# Arity up to which a comparator's ranks are counted as pair wins. Above it
# one stable argsort per row beats k(k-1)/2 pair passes; a cutoff of 7
# gained nothing over 5 on a grid of networks of N = 8 to 724.
_PAIR_WIN_MAX_ARITY = 5

# Rows the kernel takes at a time, on either route. Each pair-win temporary
# is then at most 64 KiB, under glibc's initial 128 KiB mmap threshold, so
# it comes from the heap and stays in cache. Whole-column temporaries were
# mapped and faulted in afresh on every call unless an earlier large free
# had raised the threshold: in a process that had only built a binary
# N = 365 network, execute took 2-2.5x as long as with the threshold
# raised. A sort batch's temporaries are a few times k * 64 KiB, where a
# whole group's made an execute of prime N = 2401 peak at twice its network.
_BATCH_ROWS = 8192

# Rows below which a batch of any arity is ranked by sorting. A pair pass
# costs about 4 us at any row count, and a sort of a few rows about as
# much: two 5-ary rows took 34 us by pair wins and 4.2 us sorted, 324
# ternary rows 17 and 27 us. Geometric mean over the sizes of the
# execute_warm grid of each size's median execute time, against no
# threshold, at 16/32/64/128 rows: 0.932/0.912/0.911/0.943 (2-core host).
# rank sorts every block run, whose rows are disjoint and need no scatter:
# prime N = 972, 324 ternary rows, ranked in 1.05 ms sorted and 1.06 ms by
# pair wins (medians of 41 interleaved calls, 2-core host).
_SORT_ROWS = 32


def _stable_ranks(keys: np.ndarray) -> np.ndarray:
    """The stable ranks of each row of keys: the inverse of its stable order."""
    return np.argsort(keys, axis=1, kind="stable").argsort(axis=1)


def _accumulate(acc: np.ndarray, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Add the stable local ranks of the comparators idx (m, k) into acc."""
    m, k = idx.shape
    by_sort = k > _PAIR_WIN_MAX_ARITY or m < _SORT_ROWS
    for start in range(0, m, _BATCH_ROWS):
        rows = idx[start : start + _BATCH_ROWS]
        if by_sort:
            ranks = _stable_ranks(x[rows])
            # 1-D and of equal length: numpy 2.4's add.at reads values it must
            # broadcast over 2-D indices out of bounds, and is slower on 2-D
            np.add.at(acc, rows.ravel(), ranks.ravel())
            continue
        # lo wins only when strictly greater: a tie goes to hi, the later position
        for i, j in combinations(range(k), 2):
            lo, hi = rows[:, i], rows[:, j]
            acc += np.bincount(hi - (x[lo] > x[hi]) * (hi - lo), minlength=acc.size)
    return acc


def _keys(net: Network, x) -> np.ndarray:
    """The keys of x for net: the one entry of execute and partial_rank_table."""
    _network(net)
    a = as_keys(x)
    if a.size != net.n:
        raise DimensionError(f"input length {a.size} != network size {net.n}")
    _require_valid(net)
    return a


def execute(net: Network, x, workers: int | None = None) -> np.ndarray:
    """Run the network's plan on x and return the permutation vector.

    Equals the stable rank of x; a network whose pairs are not each covered
    exactly once raises ValidationError. Execution is serial:
    ``workers`` is accepted for compatibility and has no effect.
    """
    # Serial on purpose: on a 2-core host a thread pool was slower than this
    # loop at every N up to 1024 (15-28x at N = 64) and gained only from
    # N = 2048 on.
    a = _keys(net, x)
    return _run_plan(np.zeros(net.n, dtype=np.int64), a, net._plan)


def rank(x, builder: Builder | str) -> np.ndarray:
    """The stable rank of x by the builder's network on len(x) positions,
    without building it: exactly execute(build_network(len(x), builder), x).

    Each run of the network's levels makes its comparisons on contiguous
    blocks of keys, each pair of positions once: the block run by sorting
    its rows, the cross and circle runs by dense compares (see _wins). So
    memory is O(N) plus one tile of at most _TILE_CELLS key pairs, never the
    network, and no group budget applies. Builder output is exact by
    construction, so no pair check runs. One key has rank 0.
    """
    a = as_keys(x)
    builder = _builder(builder)
    plan = [(run, None) for run in _runs(a.size, builder)] if a.size > 1 else []
    return _run_plan(np.zeros(a.size, dtype=np.int64), a, plan)


def _run_plan(acc: np.ndarray, a: np.ndarray, plan) -> np.ndarray:
    """Add the ranks of each (run, rows) of plan into acc: a block run by
    sorting the keys viewed as (m, k), a run with rows by _accumulate, and
    a run without rows, as rank passes them, by dense compares."""
    for (kind, k, levels, m), rows in plan:
        if kind == "block":
            acc += _stable_ranks(a.reshape(m, k)).ravel()
        elif rows is not None:
            _accumulate(acc, a, rows)
        elif kind == "cross":
            _cross_run(acc, a, k, levels)
        else:
            _circle_run(acc, a)
    return acc


# Most key pairs one compare of rank takes, and the most keys on either
# side of it. Summed median rank time over the benchmark's sort_cold grid
# (24 sizes, N = 9 to 972), all budgets interleaved in one process on a
# 2-core host: 2**12 9.03 ms, 2**14 4.55, 2**15 3.84, 2**16 3.62, 2**17
# 3.58, 2**18 4.01. Larger tiles gain at large N (binary N = 8192 72 ms at
# 2**16, 56 ms at 2**17), but 2**16 booleans, 64 KiB, stay under glibc's
# initial 128 KiB mmap threshold.
_TILE_CELLS = 2**16


def _wins(acc_lo, x_lo, acc_hi, x_hi, upper: np.ndarray | None = None) -> None:
    """Compare every key of each row of x_lo (..., r) with every key of the
    same row of x_hi (..., c): the compare of rank's cross and circle runs
    (a block run is sorted). Adds each lo key's wins into the same
    place of acc_lo and takes each hi key's losses from acc_hi. The caller
    adds to each key the number of keys before it that it is compared with,
    so that a hi key's wins are that number less its losses.

    The positions of x_lo all come before those of x_hi, so a lo key wins
    only when strictly greater, and a tie goes to hi, the later position.
    With upper, x_lo and x_hi are the same r keys, a diagonal tile, and
    upper the (r, r) mask of its pairs i < j: only those are compared. The
    wins are the sums of one boolean (..., r, c) compare along its two axes.
    """
    wins = x_lo[..., :, None] > x_hi[..., None, :]
    if upper is not None:
        wins &= upper
    # a side of a tile is at most _TILE_CELLS, so int32 holds every sum;
    # summing booleans into int32 took half as long as into int64
    acc_lo += wins.sum(axis=-1, dtype=np.int32)
    acc_hi -= wins.sum(axis=-2, dtype=np.int32)


def _cross_run(acc: np.ndarray, x: np.ndarray, d: int, D: int) -> None:
    """The D levels of cross comparators v(j, k) of factor d, as compares of
    the keys viewed as (N/(dD), dD): rows of d blocks of D.

    Every pair of positions in two different blocks i < i' of D of one row
    lies in exactly one of the run's comparators, and no other pair does:
    offsets a and a' meet in v(j, k) when a' - a = k(i' - i) mod D, and
    i' - i < d is invertible mod D. So the run's comparisons are the D x D
    cross products of each such pair of blocks. The blocks after block i
    are contiguous, so block i is compared with all of them at once, a tile
    of rows, lo keys and hi keys at a time: d - 1 compares a tile, not
    d(d-1)/2 (prime N = 81, three runs of d = 3, took 0.18 ms, against
    0.23 ms a pair of blocks at a time).
    """
    L = d * D
    # a key of block i is compared with the i*D keys of the blocks before it
    blocked = acc.reshape(-1, d, D)
    blocked += np.arange(0, L, D)[:, None]
    A, X = acc.reshape(-1, L), x.reshape(-1, L)
    rows = min(D, max(1, _TILE_CELLS // (L - D)))
    cols = _TILE_CELLS // rows
    blocks = max(1, _TILE_CELLS // (rows * (L - D)))
    for b in range(0, len(X), blocks):
        for start in range(0, L - D, D):
            for r in range(start, start + D, rows):
                lo = np.s_[b : b + blocks, r : min(r + rows, start + D)]
                for c in range(start + D, L, cols):
                    hi = np.s_[b : b + blocks, c : c + cols]
                    _wins(A[lo], X[lo], A[hi], X[hi])


def _circle_run(acc: np.ndarray, x: np.ndarray) -> None:
    """The binary network's rounds, which hold every pair of the N
    positions once: a slice of rows at a time, the diagonal triangle of its
    own pairs, then the rectangle to its right, a tile of columns at a time."""
    n = x.size
    rows = max(1, min(n, _TILE_CELLS // n))
    cols = _TILE_CELLS // rows
    upper = np.less.outer(np.arange(rows), np.arange(rows))
    # position p is compared with the p positions before it
    acc += np.arange(n)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t = slice(a, b)
        _wins(acc[t], x[t], acc[t], x[t], upper[: b - a, : b - a])
        for c in range(b, n, cols):
            _wins(acc[t], x[t], acc[c : c + cols], x[c : c + cols])


@dataclass
class PartialRankTable:
    """Per-level partial ranks: one length-N column per level, summing to pi."""

    n: int
    columns: list[tuple[str, np.ndarray]]
    total: np.ndarray


def partial_rank_table(net: Network, x) -> PartialRankTable:
    """One partial-rank column per level, plus their sum (the permutation).

    The columns are row views of one (L, N) array, filled a batch of
    netbuild._level_batches at a time, at most _LEVEL_SLOTS // N levels, by
    one _accumulate of the batch's rows shifted by N a level. Raises
    DimensionError, before allocating, when that array would exceed the
    2**31-byte budget that bounds the checks.
    """
    a = _keys(net, x)
    n = net.n
    _within_budget(8 * len(net._shapes) * n, n)
    levels = np.zeros((len(net._shapes), n), dtype=np.int64)
    tiled = a[:0]
    for first, counts, rows in _level_batches(net, n):
        count = len(counts)
        if tiled.size < count * n:
            tiled = np.tile(a, count)
        _accumulate(levels[first : first + count].reshape(-1), tiled, _shifted(rows, counts, n))
    columns = [(f"L{i}(C{k})", col) for i, ((_, k), col) in enumerate(zip(net._shapes, levels))]
    return PartialRankTable(n, columns, levels.sum(axis=0))


def table_to_csv(table: PartialRankTable, x=None) -> str:
    """CSV layout mirroring the partial-rank tables: row per position."""
    if not isinstance(table, PartialRankTable):
        raise ValidationError(f"expected a PartialRankTable, got {type(table).__name__}")
    if x is not None and len(_array(x, "x", 1)) != table.n:
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
    a, p = _array(x, "x", 1), _array(pi, "pi", 1)
    if p.shape != a.shape:
        raise DimensionError(f"x and pi must have equal length, got {a.size} and {p.size}")
    try:
        p = _int64_array(pi, p)
    except OverflowError as exc:
        raise PermutationError(f"pi holds {exc.args[0]}, past int64") from None
    if p.dtype.kind not in "iu":
        raise PermutationError(f"pi must hold integers, got dtype {p.dtype}")
    if not np.array_equal(np.sort(p), np.arange(a.size)):
        raise PermutationError("pi is not a permutation of 0..N-1")
    s = np.empty_like(a)
    s[p] = a
    return s
