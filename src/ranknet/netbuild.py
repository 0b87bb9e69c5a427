"""Comparator network construction, validation, and serialization.

A network is a sequence of levels. A level is a read-only (m, k) int64
array: m comparators of arity k, one strictly increasing row of global
indices each. A network holds one read-only column-major (M, k) array per
arity k, the layout the engine executes, and its levels are consecutive row
ranges of these arrays. The builders size every such array from the factor
sequence, then write it once, one contiguous column at a time, in closed
form from the two index vectors

    w(j)      = [jD, jD+1, ..., jD+D-1]
    v(j, k)_i = (j + k*i) mod D + D*i,    i = 0..d-1

Three builders are provided:

* binary_network  -- one binary comparator per unordered pair, scheduled
  into rounds by the circle method so each round's comparators are disjoint.
* divisor_network -- the factor sequence (d, N/d), d the smallest prime
  factor of N, or (N,) for prime N.
* prime_network   -- N's ascending prime factorization.

Both are one recursion over a factor sequence whose product is N. Its first
factor d splits the positions into d blocks of D = N/d; the rest of the
sequence builds every block, the blocks sharing levels so each level spans
all N positions; then D levels of d-ary cross-block comparators v(j, k),
k = 0..D-1, join the blocks. A network one of whose arrays would exceed
2**31 bytes, such as binary for N > 16384, raises DimensionError before it
is allocated.

Networks never move data: every comparator emits local stable ranks and the
engine adds them into a global accumulator.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, RankNetError, ValidationError

__all__ = [
    "Builder",
    "Comparator",
    "Level",
    "Network",
    "ValidationReport",
    "smallest_prime_factor",
    "is_prime",
    "ascending_factorization",
    "index_vector_v",
    "index_vector_w",
    "binary_network",
    "divisor_network",
    "prime_network",
    "build_network",
    "validate_network",
    "network_to_json",
    "network_from_json",
    "network_to_dot",
]


class Builder(str, Enum):
    BINARY = "binary"
    DIVISOR = "divisor"
    PRIME = "prime"


def _builder(name) -> Builder:
    try:
        return Builder(name)
    except ValueError:
        raise ValidationError(
            f"unknown builder {name!r}, expected one of {[b.value for b in Builder]}"
        ) from None


def _gate(n, builder) -> tuple[int, Builder]:
    """N as an int and the Builder, or ValidationError: the checks every
    Network passes."""
    # beyond 2**32 positions no network fits in memory
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= 2**32:
        raise ValidationError(f"n must be an integer from 1 to 2**32, got {n!r}")
    return int(n), _builder(builder)


@dataclass(frozen=True, slots=True)
class Comparator:
    """A k-ary comparator identified by its strictly increasing global indices.

    Networks store comparators as rows of their levels' arrays; this is the
    per-comparator form for writing or inspecting a network by hand.
    """

    indices: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.indices)


def _index_array(rows) -> np.ndarray:
    """A level as a read-only (m, k) int64 array with m >= 1: a Level, an
    integer array, Comparator objects, or rows of integers.

    An array is viewed, not copied, so the caller's array stays writable.
    """
    if isinstance(rows, Level):
        return rows.indices
    if isinstance(rows, np.ndarray):
        a = rows.view()
    else:
        try:
            if rows and isinstance(rows[0], Comparator):
                rows = [c.indices for c in rows]
            types = set(map(type, itertools.chain.from_iterable(rows)))
        except (TypeError, AttributeError) as exc:
            raise ValidationError(f"a comparator is not a list of indices: {exc}") from None
        if not all(issubclass(t, numbers.Integral) and t is not bool for t in types):
            names = sorted(t.__name__ for t in types)
            raise ValidationError(f"comparator indices must be integers, got {names}")
        try:
            a = np.array(rows)
        except ValueError:
            raise ValidationError("comparators of one level must have one arity") from None
    if a.ndim != 2 or a.shape[0] == 0 or a.dtype.kind not in "iu":
        raise ValidationError(
            f"a level must be a non-empty (m, k) integer array, got shape {a.shape}"
            f" and dtype {a.dtype}"
        )
    a = a.astype(np.int64, copy=False)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False, slots=True)
class Level:
    """One parallel round: m disjoint k-ary comparators.

    ``indices`` is a read-only (m, k) int64 array, one row per comparator.
    It may be given as an integer array, as rows of indices, or as a list of
    Comparator objects of one arity.
    """

    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", _index_array(self.indices))

    @property
    def arity(self) -> int:
        return self.indices.shape[1]

    @property
    def comparators(self) -> tuple[Comparator, ...]:
        return tuple(Comparator(tuple(row)) for row in self.indices.tolist())


def _level_view(rows: np.ndarray) -> Level:
    """A Level of rows, an already checked read-only int64 view, as is."""
    level = object.__new__(Level)
    object.__setattr__(level, "indices", rows)
    return level


def _empty_groups(n: int, shapes) -> dict[int, np.ndarray]:
    """One writable (M, k) int64 array per arity k of the level shapes (m, k),
    k ascending, M the rows of all levels of arity k. Each is column-major,
    the transpose of a (k, M) array, so each of its k columns is contiguous.

    Raises DimensionError, before allocating, when one array would take
    more than _CHECK_BYTES.
    """
    rows: dict[int, int] = {}
    for m, k in shapes:
        rows[k] = rows.get(k, 0) + m
    for k, m in rows.items():
        _within_budget(8 * m * k, n)
    return {k: np.empty((k, rows[k]), dtype=np.int64).T for k in sorted(rows)}


def _row_ranges(groups: dict[int, np.ndarray], shapes):
    """Each level's rows, in the order of shapes: each arity's levels are
    consecutive row ranges of its group."""
    start = dict.fromkeys(groups, 0)
    for m, k in shapes:
        yield groups[k][start[k] : start[k] + m]
        start[k] += m


@dataclass(frozen=True, eq=False)
class Network:
    """An immutable comparator network on N positions.

    ``levels`` may be given as Level objects or as anything Level accepts.
    The network copies all comparator indices once, into one read-only
    column-major (M, k) array per arity k (the layout the engine executes),
    and its levels become views of row ranges of those arrays. N must be an
    integer from 1 to 2**32, the builder a Builder or its name, and each
    comparator must have arity at least 2 and strictly increasing indices in
    [0, N); anything else raises ValidationError. DimensionError is raised
    when one arity's array would exceed the memory budget that bounds the
    checks (2**31 bytes). validate_network checks the rest of the topology;
    execute and partial_rank_table check pair coverage before a network's
    first use.
    """

    n: int
    levels: tuple[Level, ...]
    builder: Builder
    _groups: Mapping[int, np.ndarray] = field(init=False, repr=False)
    # set once every pair of positions is known to lie in exactly one
    # comparator: by the builders, whose output is exact by construction,
    # and by the first pair check that passes (see _pair_violations)
    _pairs_exact: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        n, builder = _gate(self.n, self.builder)
        arrays = []
        for li, level in enumerate(self.levels):
            try:
                arrays.append(_index_array(level))
            except ValidationError as exc:
                raise ValidationError(f"level {li}: {exc}") from None
        shapes = [a.shape for a in arrays]
        groups = _empty_groups(n, shapes)
        for rows, a in zip(_row_ranges(groups, shapes), arrays):
            rows[...] = a
        self._lay_out(n, builder, groups, shapes)

    @classmethod
    def _from_groups(cls, n, builder, groups, shapes) -> Network:
        """The network whose arity groups, from _empty_groups and filled in, hold
        its levels of the given shapes in order, each a row range of its group.
        n and builder pass the checks that Network applies."""
        net = object.__new__(cls)
        net._lay_out(*_gate(n, builder), groups, shapes)
        return net

    def _lay_out(self, n: int, builder: Builder, groups: dict[int, np.ndarray], shapes) -> None:
        """Check each group, make it and its base read-only, and make the levels
        views of their row ranges."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "builder", builder)
        for k, g in groups.items():
            if k < 2:
                raise ValidationError(f"comparator arity {k} < 2")
            if g.min(initial=0) < 0 or g.max(initial=-1) >= n:
                raise ValidationError(f"comparator index out of range [0, {n})")
            if not (g[:, 1:] > g[:, :-1]).all():
                raise ValidationError("comparator indices must be strictly increasing")
            # a read-only view of a writable base could be made writable again
            g.base.flags.writeable = False
            g.flags.writeable = False
        levels = tuple(map(_level_view, _row_ranges(groups, shapes)))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_groups", MappingProxyType(groups))

    def comparators(self):
        for level in self.levels:
            yield from level.comparators

    def arity_groups(self) -> Mapping[int, np.ndarray]:
        """All comparator indices, one read-only (M, k) int64 array per arity
        k, each level's rows in level order."""
        return self._groups


# ---------------------------------------------------------------------------
# number theory helpers


def _integer(x) -> int:
    """An integer (numpy's included) as an int, or DimensionError."""
    try:
        return operator.index(x)
    except TypeError:
        raise DimensionError(f"need an integer, got {x!r}") from None


def _size(n, least: int = 2) -> int:
    """N as an int: an integer of at least ``least``."""
    n = _integer(n)
    if n < least:
        raise DimensionError(f"need N >= {least}, got {n}")
    return n


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n (n itself when n is prime)."""
    n = _size(n)
    if n % 2 == 0:
        return 2
    if n % 3 == 0:
        return 3
    f = 5
    while f * f <= n:
        if n % f == 0:
            return f
        if n % (f + 2) == 0:
            return f + 2
        f += 6
    return n


def is_prime(n: int) -> bool:
    n = _integer(n)
    return n >= 2 and smallest_prime_factor(n) == n


def ascending_factorization(n: int) -> list[int]:
    """Prime factors of n in nondecreasing order, with multiplicity."""
    n = _size(n)
    out = []
    while n > 1:
        p = smallest_prime_factor(n)
        out.append(p)
        n //= p
    return out


# ---------------------------------------------------------------------------
# index vectors


def index_vector_v(j: int, k: int, d: int, D: int) -> list[int]:
    """Cross-block index vector: element i is (j + k*i) mod D + D*i.

    Picks one position from each of the d contiguous blocks of size D;
    strictly increasing since consecutive elements differ by at least 1.
    The scalar form of the cross comparators that _levels writes.
    """
    if not (0 <= j < D and 0 <= k < D):
        raise DomainError(f"j and k must lie in [0, {D}), got j={j}, k={k}")
    if d < 2:
        raise DimensionError(f"block count d must be >= 2, got {d}")
    return [(j + k * i) % D + D * i for i in range(d)]


def index_vector_w(j: int, D: int, d: int | None = None) -> list[int]:
    """Contiguous block index vector [jD, jD+1, ..., jD+D-1]."""
    if j < 0 or (d is not None and j >= d):
        raise DomainError(f"block index j={j} out of range")
    if D < 1:
        raise DimensionError(f"block size D must be >= 1, got {D}")
    return list(range(j * D, (j + 1) * D))


# ---------------------------------------------------------------------------
# builders


def binary_network(n: int) -> Network:
    """All N(N-1)/2 binary comparators, one per unordered pair.

    Rounds come from the circle method: N-1 rounds of N/2 pairs for even N,
    N rounds of (N-1)/2 pairs for odd N (one position idle per round).
    """
    n = _size(n)
    m = n + n % 2  # an odd N gets an idle slot, position m-1
    c, p = m - 1, m // 2 - 1
    hub = int(m == n)  # the pair of the hub m-1 and r in round r, dropped for odd N
    shapes = [(hub + p, 2)] * c
    groups = _empty_groups(n, shapes)
    # each round's lo and hi columns, as (c, hub + p) views of the group's columns
    lo, hi = (groups[2][:, i].reshape(c, hub + p) for i in (0, 1))
    if hub:
        lo[:, 0] = np.arange(c)
        hi[:, 0] = m - 1
    # Round r pairs the hub with r, and (r+i) mod c with (r-i) mod c for
    # i = 1..p. Both sequences rotate by one per round, so their (c, p)
    # grids are windows over one period, taken without copying.
    up = sliding_window_view(np.arange(1, c + p) % c, p)
    down = sliding_window_view(np.arange(-p, c) % c, p)[:c, ::-1]
    np.minimum(up, down, out=lo[:, hub:])
    np.maximum(up, down, out=hi[:, hub:])
    return _exact(Network._from_groups(n, Builder.BINARY, groups, shapes))


def divisor_network(n: int) -> Network:
    """The factor sequence (d, N/d), d the smallest prime factor of N.

    Every unordered pair is covered exactly once: same-block pairs by the
    block level, cross-block pairs by a unique (j, k), since differences
    below d are invertible mod N/d.
    """
    n = _size(n)
    d = smallest_prime_factor(n)
    groups, shapes = _levels([d, n // d] if d < n else [d])
    return _exact(Network._from_groups(n, Builder.DIVISOR, groups, shapes))


def prime_network(n: int) -> Network:
    """Recursive divisor decomposition down to prime-arity comparators."""
    n = _size(n)
    groups, shapes = _levels(ascending_factorization(n))
    return _exact(Network._from_groups(n, Builder.PRIME, groups, shapes))


def _exact(net: Network) -> Network:
    """net, marked as covering every pair exactly once, so that execution
    checks nothing: builder output is exact by construction."""
    object.__setattr__(net, "_pairs_exact", True)
    return net


def _levels(factors: list[int]) -> tuple[dict[int, np.ndarray], list[tuple[int, int]]]:
    """The arity groups (as _empty_groups makes them, filled in) and the level
    shapes of the factor sequence ``factors``, whose product is N.

    The recursion runs from the last factor f up: its block level, N/f
    comparators w(j) of arity f, comes first. Then each earlier factor d,
    with D the product of the factors after it, joins the d blocks of D
    positions in each of the N/(dD) blocks of dD with D levels of N/d
    cross comparators v(j, k), k = 0..D-1; a level holds block 0's
    comparators, then block 1's, ... Every step writes its rows straight
    into its row range of its group, one contiguous column at a time.
    """
    n = math.prod(factors)
    *steps, f = factors
    shapes = [(n // f, f)]
    D = f
    for d in reversed(steps):
        shapes += [(n // d, d)] * D
        D *= d
    groups = _empty_groups(n, shapes)
    groups[f][: n // f] = np.arange(n).reshape(n // f, f)
    start = dict.fromkeys(groups, 0)
    start[f] = n // f
    D = f
    for d in reversed(steps):
        blocks = n // (d * D)
        rows = groups[d][start[d] : start[d] + D * blocks * D]
        start[d] += len(rows)
        # Row (k, b, j) is v(j, k) in block b. Over j, (j + k*i) mod D is
        # 0..D-1 rotated by k*i mod D: a row of the window view of one
        # period, gathered instead of computed
        rotations = sliding_window_view(np.arange(2 * D - 1) % D, D)
        shift = d * D * np.arange(blocks)[:, None]
        for i in range(d):
            column = rows[:, i].reshape(D, blocks, D)  # contiguous, so a view
            np.add(rotations[np.arange(D) * i % D, None], shift + D * i, out=column)
        D *= d
    return groups, shapes


_BUILDERS = {
    Builder.BINARY: binary_network,
    Builder.DIVISOR: divisor_network,
    Builder.PRIME: prime_network,
}


def build_network(n: int, builder: Builder | str) -> Network:
    return _BUILDERS[_builder(builder)](n)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def validate_network(net: Network) -> ValidationReport:
    """Structural checks: prime arities, levels, pair coverage.

    Level coverage of all N positions is required for divisor and prime
    builders; the binary builder idles one position per round when N is odd,
    so only within-level disjointness is enforced there. Arity, index range
    and index order are checked when the network is made. Every check runs
    on every call, builder output included; a network whose pairs pass is
    not checked again by execute. Raises DimensionError when a network with
    the right pair total would need an N*N boolean pair bitmap larger than a
    fixed budget.
    """
    v: list[str] = []
    shapes = [level.indices.shape for level in net.levels]
    if net.builder == Builder.PRIME:
        composite = {k for k in net.arity_groups() if not is_prime(k)}
        v += [f"level {li}: non-prime arity {k}" for li, (_, k) in enumerate(shapes) if k in composite]
    v += _level_violations(net, shapes)
    v += _pair_violations(net)
    return ValidationReport(not v, v)


# Most slots, levels times span, one bitmap of _level_violations takes
_LEVEL_SLOTS = 2**16


def _repeats(codes: np.ndarray) -> np.ndarray:
    """Every occurrence of a code after its first, in code order."""
    ordered = np.sort(codes)
    return ordered[1:][ordered[1:] == ordered[:-1]]


def _level_violations(net: Network, shapes) -> list[str]:
    """Overlap lines, then coverage lines for divisor and prime, for every level.

    A batch of levels of one arity group at a time, at most _LEVEL_SLOTS
    slots or one level, as codes level * span + position, span one past the
    largest position named. When the batch fits, a bitmap passes it if its
    codes set as many bits as there are codes. Otherwise the batch's sorted
    codes give its repeats, so no array is sized by span; only levels with
    a repeat are gone through one by one. Without repeats, m rows of k
    distinct positions in [0, N) cover all N exactly when m * k = N.
    """
    n = net.n
    # rows increase, so each group's largest position is in its last column
    span = 1 + max((int(idx[:, -1].max()) for idx in net.arity_groups().values()), default=-1)
    per = max(1, _LEVEL_SLOTS // max(span, 1))
    level_ids: dict[int, list[int]] = {k: [] for k in net.arity_groups()}
    for li, (_, k) in enumerate(shapes):
        level_ids[k].append(li)
    distinct = [m * k for m, k in shapes]
    overlaps = {}
    for k, g in net.arity_groups().items():
        m = np.array([shapes[li][0] for li in level_ids[k]])
        ends = np.cumsum(m)
        for first in range(0, len(m), per):
            stop = min(first + per, len(m))
            level = np.repeat(np.arange(stop - first) * span, m[first:stop])
            codes = (g[ends[first] - m[first] : ends[stop - 1]] + level[:, None]).ravel(order="K")
            if span <= _LEVEL_SLOTS:
                # about five times faster than sorting, for a batch that passes
                seen = np.zeros((stop - first) * span, dtype=bool)
                seen[codes] = True
                if np.count_nonzero(seen) == codes.size:
                    continue
            repeated = _repeats(codes)
            if repeated.size:
                lost = np.bincount(repeated // span)
                # the distinct repeated codes, split into their levels
                codes = np.unique(repeated)
                for part in np.split(codes, np.flatnonzero(np.diff(codes // span)) + 1):
                    at = int(part[0]) // span
                    li = level_ids[k][first + at]
                    distinct[li] -= int(lost[at])
                    overlaps[li] = f"level {li}: comparators overlap at {(part - at * span).tolist()}"
    v = [overlaps[li] for li in sorted(overlaps)]
    if net.builder in (Builder.DIVISOR, Builder.PRIME):
        v += [f"level {li}: does not cover all {n} positions" for li, c in enumerate(distinct) if c < n]
    return v


# Most bytes one array of a network or of its checks may take, an arity
# group or the N*N pair bitmap, and the bytes of a network's JSON text.
# 2**31 admits a binary network for N up to 16384 and a bitmap for N up to
# 46340.
_CHECK_BYTES = 2**31


def _within_budget(nbytes: int, n: int) -> None:
    if nbytes > _CHECK_BYTES:
        raise DimensionError(
            f"a network of N = {n} needs {nbytes} bytes in one array, more than {_CHECK_BYTES}"
        )


def _pair_codes(net: Network):
    """Every comparator's pairs (i, j) as codes i*N + j, one index column of
    one arity group at a time, with the group's row count: each batch holds at
    most as many codes as the network holds indices, and a batch of one row
    holds no code twice."""
    n = net.n
    for k, idx in net.arity_groups().items():
        for a in range(k - 1):
            # in memory order, a view of the column-major batch
            yield (idx[:, a, None] * n + idx[:, a + 1 :]).ravel(order="K"), len(idx)


# Most codes the failure path of _pair_violations takes at once
_PAIR_CHUNK = 2**16


def _pair_violations(net: Network) -> list[str]:
    """Lines for pairs of positions not covered exactly once; none marks the network.

    The pair total first: only a network that holds N(N-1)/2 pairs gets a
    bitmap. Its rows are strictly increasing, so every code is a pair with
    i < j, and N(N-1)/2 distinct codes then mean that each pair is covered
    exactly once. Only on failure are the pairs counted, in time linear in
    the pairs.
    """
    n = net.n
    total = sum(len(idx) * k * (k - 1) // 2 for k, idx in net.arity_groups().items())
    expected = n * (n - 1) // 2
    if total != expected:
        return [f"comparators cover {total} pairs, not the {expected} of {n} positions"]
    _within_budget(n * n, n)
    seen = np.zeros(n * n, dtype=bool)
    for codes, _ in _pair_codes(net):
        seen[codes] = True
    if np.count_nonzero(seen) == expected:
        _exact(net)
        return []

    # failure path: mark the pairs seen twice, a chunk of codes at a time;
    # a code repeats one of an earlier chunk or one of its own
    seen[:] = False
    twice = np.zeros_like(seen)
    for codes, rows in _pair_codes(net):
        for at in range(0, codes.size, _PAIR_CHUNK):
            chunk = codes[at : at + _PAIR_CHUNK]
            twice[chunk[seen[chunk]]] = True
            if rows > 1:
                twice[_repeats(chunk)] = True
            seen[chunk] = True
    more = expected - np.count_nonzero(seen) + np.count_nonzero(twice)

    # the first ten bad pairs, i < j, in code order, a block of rows at a time
    bad = np.empty(0, dtype=np.int64)
    block = max(1, _PAIR_CHUNK // n)
    for i in range(0, n - 1, block):
        top = min(i + block, n)
        wrong = (~seen[i * n : top * n] | twice[i * n : top * n]).reshape(top - i, n)
        wrong &= np.arange(n) > np.arange(i, top)[:, None]
        bad = np.concatenate([bad, np.flatnonzero(wrong)[: 10 - len(bad)] + i * n])
        if len(bad) == 10:
            break

    # their coverings, counted exactly: twice now marks the bad pairs
    twice[:] = False
    twice[bad] = True
    covered = np.zeros(len(bad), dtype=np.int64)
    for codes, _ in _pair_codes(net):
        hits = codes[twice[codes]]
        if hits.size:
            covered += np.bincount(np.searchsorted(bad, hits), minlength=len(bad))
    v = [f"pair ({c // n},{c % n}) covered {t} times" for c, t in zip(bad.tolist(), covered.tolist())]
    if more > len(bad):
        v.append(f"... and {more - len(bad)} more pair-coverage violations")
    return v


def _require_valid(net: Network, violations: list[str] | None = None) -> Network:
    """net, or ValidationError naming the first of its violations.

    By default these are the pair violations, for execute and
    partial_rank_table: summed partial ranks are the stable rank only when
    every pair of positions lies in exactly one comparator. A network known
    to pass (builder output, or one that passed once) is not checked again.
    """
    if violations is None:
        violations = [] if net._pairs_exact else _pair_violations(net)
    if violations:
        raise ValidationError(f"invalid {net.builder.value} network: {violations[0]}")
    return net


# ---------------------------------------------------------------------------
# serialization


def _level_json(idx: np.ndarray) -> str:
    m, k = idx.shape
    row = '{"indices": [' + ", ".join(["%d"] * k) + "]}"
    return "[" + ", ".join([row] * m) % tuple(idx.ravel().tolist()) + "]"


def network_to_json(net: Network) -> str:
    """The network document, byte for byte as json.dumps writes it:
    ``{"n": N, "builder": name, "levels": [[{"indices": [...]}, ...], ...]}``.

    Raises DimensionError, before formatting any level, when a bound on the
    text's bytes from the group shapes exceeds the 2**31-byte budget that
    bounds the checks (binary N above 11770).
    """
    head = f'{{"n": {net.n}, "builder": {json.dumps(net.builder.value)}, "levels": ['
    # a row is '{"indices": [' and ']}, ' around its k indices, each of at
    # most `digits` digits and ', '; a level adds '[', ']' and ', '
    digits = len(str(net.n - 1))
    rows = sum(len(g) * (17 + k * (digits + 2)) for k, g in net.arity_groups().items())
    _within_budget(len(head) + rows + 4 * len(net.levels) + 2, net.n)
    levels = ", ".join(_level_json(level.indices) for level in net.levels)
    return f"{head}{levels}]}}"


# The header network_to_json writes, and the text between two of its levels
_HEADER = re.compile(r'\{"n": ([1-9][0-9]*), "builder": "([a-z]+)", "levels": \[')
_LEVEL_BREAK = "}], [{"
# every character of the levels but digits, spaces and minus signs
_TO_SPACES = str.maketrans(dict.fromkeys('{}[]":,indces', " "))


def _canonical_network(text: str) -> Network | None:
    """The network whose network_to_json is text, byte for byte, or None.

    Each level's rows are its count of ':', and its arity is its first row's
    count of ',' plus one. All indices are read by one np.fromstring, which
    raises ValueError on a token it cannot read, such as 1.5, but reads -1,
    and saturates 99999999999999999999 to the largest int64. So the network
    is kept only if it writes text back exactly; then json.loads would have
    read the same network. None on any other outcome, and on any error.
    """
    header = _HEADER.match(text)
    if header is None or not text.endswith("]}"):
        return None
    start, stop = header.end(), len(text) - 2
    shapes = []
    begin = start
    while begin < stop:
        end = text.find(_LEVEL_BREAK, begin, stop)
        end = stop if end < 0 else end
        row = text.find("]", begin, end)
        if row < 0:
            # every canonical level closes its first row's indices; and a
            # count to -1 would scan to the end of the text once per level
            return None
        shapes.append((text.count(":", begin, end), text.count(",", begin, row) + 1))
        begin = end + len(_LEVEL_BREAK)
    try:
        values = np.fromstring(text[start:stop].translate(_TO_SPACES), dtype=np.int64, sep=" ")
        # a level of no rows writes back as [], but Network refuses it
        if min((m for m, _ in shapes), default=1) < 1 or sum(m * k for m, k in shapes) != values.size:
            return None
        n = int(header[1])
        groups = _empty_groups(n, shapes)
        at = 0
        for rows in _row_ranges(groups, shapes):
            rows[...] = values[at : at + rows.size].reshape(rows.shape)
            at += rows.size
        net = Network._from_groups(n, header[2], groups, shapes)
        return net if network_to_json(net) == text else None
    except (RankNetError, ValueError):
        return None


_INDICES = operator.itemgetter("indices")


def network_from_json(doc) -> Network:
    """Load a network document (JSON text or its parsed form).

    Text that network_to_json writes takes a fast path: one pass reads all
    its indices, and the network is kept only if network_to_json writes the
    text back byte for byte. Any other document, including bytes, goes
    through json.loads, which writes every error message.

    Raises ValidationError for a malformed document, for indices that are
    not integers (booleans included), for a level whose comparators differ
    in arity, and for any network that validate_network rejects; and, as
    validate_network does, DimensionError when checking the network would
    exceed the check's memory budget (a right pair total with N above
    46340).
    """
    net = _canonical_network(doc) if isinstance(doc, str) else None
    if net is None:
        return _network_from_doc(doc)
    return _require_valid(net, validate_network(net).violations)


def _network_from_doc(doc) -> Network:
    """network_from_json through json.loads, for any document."""
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        n, builder = doc["n"], doc["builder"]
        levels = [list(map(_INDICES, level)) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    net = Network(n, levels, builder)
    return _require_valid(net, validate_network(net).violations)


def network_to_dot(net: Network) -> str:
    """Graphviz rendering: one cluster per level, one node per comparator.

    Each input position feeds its comparators; every comparator feeds the
    shared adder node that sums the partial ranks.
    """
    out = ["digraph ranknet {", "  rankdir=LR;"]
    out += [f'  x{i} [label="x{i}", shape=plaintext];' for i in range(net.n)]
    out.append('  adder [label="+", shape=doublecircle];')
    for li, level in enumerate(net.levels):
        m, k = level.indices.shape
        node = f'    c{li}_%d [label="C_{k}", shape=box];'
        out += [f"  subgraph cluster_L{li} {{", f'    label="L{li}";']
        out.append("\n".join([node] * m) % tuple(range(m)))
        out.append("  }")
    for li, level in enumerate(net.levels):
        m, k = level.indices.shape
        # per comparator c: "x{i} -> c" for each of its k indices i, then "c -> adder"
        edges = "\n".join([f"  x%d -> c{li}_%d;"] * k + [f"  c{li}_%d -> adder;"])
        args = np.repeat(np.arange(m)[:, None], 2 * k + 1, axis=1)
        args[:, 0 : 2 * k : 2] = level.indices
        out.append("\n".join([edges] * m) % tuple(args.ravel().tolist()))
    out.append("}")
    return "\n".join(out) + "\n"
