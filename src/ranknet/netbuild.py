"""Comparator network construction, validation, and serialization.

A network is a sequence of levels. A level is a read-only (m, k) int64
array: m comparators of arity k, one strictly increasing row of global
indices each. A network holds one read-only column-major (M, k) array per
arity k, the layout the engine executes, and each level's shape (m, k), in
order; its levels are consecutive row ranges of these arrays. Level views
of them are made only when a network's ``levels`` is first read: building,
validating, writing and reading back a network, and its partial-rank table,
walk the shapes. The builders size every such array from the factor
sequence, then write it once, a run of levels per fixed handful of numpy
calls, in closed form from the two index vectors

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

Each builder's network is one plan, a list of runs of levels (_runs), each
run plain data (kind, k, levels, m): a block run, the one level of rows
w(j); a cross run, the D levels of rows v(j, k) of factor d, its (k,
levels) being (d, D); or the circle run of binary's rounds. The builders
write each run whole, by the writer of its kind, into its row range of its
arity group, and the network keeps each run with its rows as its plan.
The plan is the mark that every pair of positions lies in exactly one
comparator. Any other network gets one, a "rows" run per arity group,
when its pair check first passes (_pair_violations). engine.execute runs
a network's plan and engine.rank the runs alone, by one loop
(engine._run_plan) that dispatches on the kinds.

A network's levels are walked one way, in batches of whole consecutive
levels of one arity, levels times a stride at most _LEVEL_SLOTS
(_level_batches): network_to_json writes its text from them, and the level
check of validate_network and engine.partial_rank_table read codes, each
level's positions shifted by the stride times its place in it (_shifted).

Networks never move data: every comparator emits local stable ranks and the
engine adds them into a global accumulator.
"""

from __future__ import annotations

import itertools
import json
import numbers
import operator
import re
from collections.abc import Iterable, Mapping
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .errors import DimensionError, DomainError, ValidationError

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


def _int64_array(values, a: np.ndarray) -> np.ndarray:
    """a, numpy's array of values; but values as int64 when a is an object
    array, or a float array that values is not, and every entry of values is
    an integer within int64. numpy promotes a mix of uint64 and int64
    scalars to float64, and holds an integer outside int64 beside others as
    a float or an object: raises OverflowError carrying the first such
    integer."""
    if a.dtype.kind not in "fO" or (a.dtype.kind == "f" and isinstance(values, np.ndarray)):
        return a
    integers = True
    for v in np.array(values, dtype=object).ravel().tolist():
        if not isinstance(v, numbers.Integral) or isinstance(v, bool):
            integers = False
        elif not -(2**63) <= int(v) < 2**63:
            raise OverflowError(v)
    return np.array(values, dtype=np.int64) if integers else a


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
            rows = [c.indices if isinstance(c, Comparator) else c for c in rows]
            types = set(map(type, itertools.chain.from_iterable(rows)))
        except (TypeError, AttributeError) as exc:
            raise ValidationError(f"a comparator is not a list of indices: {exc}") from None
        if not all(issubclass(t, numbers.Integral) and t is not bool for t in types):
            names = sorted(t.__name__ for t in types)
            raise ValidationError(f"comparator indices must be integers, got {names}")
        try:
            a = _int64_array(rows, np.array(rows))
        except ValueError:
            raise ValidationError("comparators of one level must have one arity") from None
        except OverflowError as exc:
            raise ValidationError(f"comparator index {exc.args[0]} does not fit in int64") from None
    if a.ndim != 2 or a.shape[0] == 0 or a.dtype.kind not in "iu":
        raise ValidationError(
            f"a level must be a non-empty (m, k) integer array, got shape {a.shape}"
            f" and dtype {a.dtype}"
        )
    if a.dtype == np.uint64 and a.max(initial=0) >= 2**63:
        raise ValidationError(f"comparator index {a.max()} does not fit in int64")
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
    """One writable (M, k) int64 array per arity k of the shapes (m, k) of
    levels or runs, k ascending, M the rows of all those of arity k. Each is column-major,
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
    """The rows of each level or run, in the order of shapes: those of each
    arity are consecutive row ranges of its group."""
    start = dict.fromkeys(groups, 0)
    for m, k in shapes:
        yield groups[k][start[k] : start[k] + m]
        start[k] += m


def _level_batches(net: Network, stride: int):
    """The levels of net in order, as batches of at most
    max(1, _LEVEL_SLOTS // stride) whole consecutive levels of one arity:
    (the batch's first level, its levels' row counts, their rows, a
    read-only row range of the arity group)."""
    per = max(1, _LEVEL_SLOTS // stride)
    groups = net.arity_groups()
    start = dict.fromkeys(groups, 0)
    li = 0
    for k, run in itertools.groupby(net._shapes, key=operator.itemgetter(1)):
        counts = [m for m, _ in run]
        for at in range(0, len(counts), per):
            batch = counts[at : at + per]
            rows = groups[k][start[k] : start[k] + sum(batch)]
            yield li, batch, rows
            start[k] += len(rows)
            li += len(batch)


def _shifted(rows: np.ndarray, counts: list[int], stride: int) -> np.ndarray:
    """A batch's rows with stride times each level's place in the batch
    added, column-major like the groups. With every position below stride,
    each level of the batch has its own slots."""
    shift = np.repeat(np.arange(0, len(counts) * stride, stride), counts)
    return (rows.T + shift).T


class Network:
    """An immutable comparator network on N positions.

    ``levels`` may be given as Level objects or as anything Level accepts.
    The network copies all comparator indices once, into one read-only
    column-major (M, k) array per arity k (the layout the engine executes),
    and keeps each level's shape (m, k). Its levels are consecutive row
    ranges of those arrays; ``levels`` makes them Level views when first
    read, and keeps them. N must be an integer from 1 to 2**32, the builder
    a Builder or its name, and each comparator must have arity at least 2
    and strictly increasing indices in [0, N); anything else raises
    ValidationError. DimensionError is raised when one arity's array would
    exceed the memory budget that bounds the checks (2**31 bytes).
    validate_network checks the rest of the topology; execute and
    partial_rank_table check pair coverage before a network's first use,
    unless it has a plan. A builder's network has one from the start, its
    runs of levels; any other network gets one when its pair check first
    passes, one run per arity group, which execute then runs.
    """

    # the runs engine.execute takes, as (run, rows) pairs, rows a read-only
    # row range of an arity group; None until every pair of positions is
    # known to lie in exactly one comparator. The builders set their _runs,
    # and the first pair check that passes one ("rows", k, 1, M) run per group
    _plan: tuple | None = None
    # the Level views that levels returns, None until it is first read; the
    # network's walks read _shapes, each level's (m, k) in order, instead
    _levels: tuple[Level, ...] | None = None

    def __init__(self, n, levels, builder):
        n, builder = _gate(n, builder)
        if not isinstance(levels, Iterable):
            raise ValidationError(f"levels must be an iterable of levels, got {levels!r}")
        arrays = []
        for li, level in enumerate(levels):
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
        """Check each group, make it and its base read-only, and keep the
        groups and the level shapes (m, k), in order."""
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "builder", builder)
        object.__setattr__(self, "_groups", MappingProxyType(groups))
        object.__setattr__(self, "_shapes", tuple(shapes))

    @property
    def levels(self) -> tuple[Level, ...]:
        """The levels in order, read-only Level views of row ranges of the
        arity groups."""
        if self._levels is None:
            levels = tuple(map(_level_view, _row_ranges(self._groups, self._shapes)))
            object.__setattr__(self, "_levels", levels)
        return self._levels

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return f"{name}(n={self.n!r}, levels={self.levels!r}, builder={self.builder!r})"

    def comparators(self):
        for level in self.levels:
            yield from level.comparators

    def arity_groups(self) -> Mapping[int, np.ndarray]:
        """All comparator indices, one read-only (M, k) int64 array per arity
        k, each level's rows in level order."""
        return self._groups


def _network(net) -> None:
    """ValidationError when net is not a Network."""
    if not isinstance(net, Network):
        raise ValidationError(f"expected a Network, got {type(net).__name__}")


# ---------------------------------------------------------------------------
# number theory helpers


def _integer(x) -> int:
    """An integer (numpy's included, a bool not) as an int, or DimensionError."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DimensionError(f"need an integer, got {x!r}")


def _size(n, least: int = 2) -> int:
    """N as an int: an integer of at least ``least``."""
    n = _integer(n)
    if n < least:
        raise DimensionError(f"need N >= {least}, got {n}")
    return n


def _array(values, what: str, ndim: int) -> np.ndarray:
    """numpy's asarray of values, or DimensionError naming what when values
    is ragged or has other than ndim dimensions. No dtype is cast: each
    caller states what it accepts."""
    try:
        a = np.asarray(values)
    except ValueError:
        raise DimensionError(f"{what} must be {ndim}-D, got a ragged sequence") from None
    if a.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-D, got shape {a.shape}")
    return a


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
    The scalar form of the cross comparators that _cross_rows writes.
    """
    j, k, d, D = map(_integer, (j, k, d, D))
    if not (0 <= j < D and 0 <= k < D):
        raise DomainError(f"j and k must lie in [0, {D}), got j={j}, k={k}")
    if d < 2:
        raise DimensionError(f"block count d must be >= 2, got {d}")
    # the list's array of d pointers
    _within_budget(8 * d, d)
    return [(j + k * i) % D + D * i for i in range(d)]


def index_vector_w(j: int, D: int, d: int | None = None) -> list[int]:
    """Contiguous block index vector [jD, jD+1, ..., jD+D-1]."""
    j, D, d = _integer(j), _integer(D), d if d is None else _integer(d)
    if j < 0 or (d is not None and j >= d):
        raise DomainError(f"block index j={j} out of range")
    if D < 1:
        raise DimensionError(f"block size D must be >= 1, got {D}")
    _within_budget(8 * D, D)
    return list(range(j * D, (j + 1) * D))


# ---------------------------------------------------------------------------
# builders


def binary_network(n: int) -> Network:
    """All N(N-1)/2 binary comparators, one per unordered pair.

    Rounds come from the circle method: N-1 rounds of N/2 pairs for even N,
    N rounds of (N-1)/2 pairs for odd N (one position idle per round).
    """
    return _built(_size(n), Builder.BINARY)


def divisor_network(n: int) -> Network:
    """The factor sequence (d, N/d), d the smallest prime factor of N.

    Every unordered pair is covered exactly once: same-block pairs by the
    block level, cross-block pairs by a unique (j, k), since differences
    below d are invertible mod N/d.
    """
    return _built(_size(n), Builder.DIVISOR)


def prime_network(n: int) -> Network:
    """Recursive divisor decomposition down to prime-arity comparators."""
    return _built(_size(n), Builder.PRIME)


def _built(n: int, builder: Builder) -> Network:
    """The network of _runs(n, builder): every arity group sized from the
    runs, then each run written whole into its row range of its group by
    the writer of its kind."""
    runs = _runs(n, builder)
    blocks = [(levels * m, k) for _, k, levels, m in runs]
    groups = _empty_groups(n, blocks)
    for (kind, k, levels, _), rows in zip(runs, _row_ranges(groups, blocks)):
        if kind == "block":
            _block_rows(rows)
        elif kind == "cross":
            _cross_rows(rows, n, k, levels)
        else:
            _circle_rounds(rows, n)
    shapes = itertools.chain.from_iterable([(m, k)] * levels for _, k, levels, m in runs)
    net = Network._from_groups(n, builder, groups, shapes)
    # exact by construction: the plan, on the read-only groups, marks it so
    plan = tuple(zip(runs, _row_ranges(net.arity_groups(), blocks)))
    object.__setattr__(net, "_plan", plan)
    return net


def _runs(n: int, builder: Builder) -> list[tuple[str, int, int, int]]:
    """The levels of the builder's network on n >= 2 positions, in order, as
    runs of levels of one shape: (kind, k, levels, m), m rows of arity k in
    each of the run's levels.

    Binary is one "circle" run of the circle method's rounds. Divisor and
    prime are the recursion over their factor sequence, whose product is N,
    run from the last factor f up: a "block" run, its one level of N/f
    comparators w(j) of arity f, comes first. Then each earlier factor d,
    with D the product of the factors after it, is a "cross" run, whose
    (k, levels) is (d, D): it joins the d blocks of D positions in each of
    the N/(dD) blocks of dD with D levels of N/d cross comparators v(j, k),
    k = 0..D-1; a level holds block 0's comparators, then block 1's, ...
    """
    if builder == Builder.BINARY:
        # an odd N idles one position a round
        return [("circle", 2, n - 1 + n % 2, n // 2)]
    if builder == Builder.PRIME:
        factors = ascending_factorization(n)
    else:
        d = smallest_prime_factor(n)
        factors = [d, n // d] if d < n else [d]
    *steps, f = factors
    runs = [("block", f, 1, n // f)]
    D = f
    for d in reversed(steps):
        runs.append(("cross", d, D, n // d))
        D *= d
    return runs


def _block_rows(rows: np.ndarray) -> None:
    """The block level: row j is w(j), the positions jf..jf+f-1. Its one
    temporary holds the level's N indices: a broadcast add straight into the
    columns measured 2-3x slower on a row or two."""
    rows[...] = np.arange(rows.size).reshape(rows.shape)


def _cross_rows(rows: np.ndarray, n: int, d: int, D: int) -> None:
    """The D levels of the cross run of factor d: row (k, b, j) is v(j, k)
    in block b of dD positions.

    Over j, (j + k*i) mod D is D consecutive values of t mod D from t = k*i
    on, so column i of the run is one strided view of one period, with
    stride i over the levels, plus the block offsets: one ufunc call per
    column, written straight into it, and no temporary larger than d*D
    indices. One call for all d columns would need the rotations gathered
    first, since the stride over the levels differs per column; for d = 2
    and 3 that measured 1.2-2.3x slower.
    """
    period = np.arange((D - 1) * (d - 1) + D)
    period %= D
    shift = np.arange(0, n, d * D)[:, None]
    # contiguous columns, so each is a (levels, blocks, D) view
    columns = rows.T.reshape(d, D, n // (d * D), D)
    for i in range(d):
        # a strided view, in bytes: a fraction of sliding_window_view's cost
        window = np.ndarray((D, 1, D), np.int64, period, 0, (8 * i, 0, 8))
        np.add(window, shift + D * i, out=columns[i])


def _circle_rounds(rows: np.ndarray, n: int) -> None:
    """The circle method's rounds on c + 1 slots, c + 1 = N rounded up to
    even, the last slot idle for odd N: round r pairs the hub c with r
    (for even N), and (r+i) mod c with (r-i) mod c for i = 1..p. Both
    sequences are windows over one period, r - p .. r + p mod c, moving by
    one per round: two strided views of it, whose minimum and maximum are
    written straight into the lo and hi columns.
    """
    c, hub, p = n - 1 + n % 2, 1 - n % 2, (n - 1) // 2
    # each round's lo and hi columns, as (rounds, hub + p) views of the columns of rows
    lo, hi = (rows[:, i].reshape(c, hub + p) for i in (0, 1))
    if hub:
        lo[:, 0] = np.arange(c)
        hi[:, 0] = c
    period = np.arange(-p, c + p)
    period %= c
    # strided views, in bytes; for p = 0 (N < 4) both are empty
    up = np.ndarray((c, p), np.int64, period, 8 * (p + 1), (8, 8))
    down = np.ndarray((c, p), np.int64, period, 8 * max(p - 1, 0), (8, -8))
    np.minimum(up, down, out=lo[:, hub:])
    np.maximum(up, down, out=hi[:, hub:])


def build_network(n: int, builder: Builder | str) -> Network:
    builder = _builder(builder)
    return _built(_size(n), builder)


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
    _network(net)
    v: list[str] = []
    shapes = net._shapes
    if net.builder == Builder.PRIME:
        composite = {k for k in net.arity_groups() if not is_prime(k)}
        v += [f"level {li}: non-prime arity {k}" for li, (_, k) in enumerate(shapes) if k in composite]
    v += _level_violations(net, shapes)
    v += _pair_violations(net)
    return ValidationReport(not v, v)


# Most slots one batch of _level_batches takes, levels times stride: the
# span of _level_violations' bitmap, N in engine.partial_rank_table, and in
# network_to_json the most indices a level holds. Formatting binary N = 512
# at 2**12 to 2**17 indices a batch took the same time; from 2**17 on, a
# batch's temporaries outgrew the text and raised its peak memory.
_LEVEL_SLOTS = 2**16


def _repeats(codes: np.ndarray) -> np.ndarray:
    """Every occurrence of a code after its first, in code order."""
    ordered = np.sort(codes)
    return ordered[1:][ordered[1:] == ordered[:-1]]


def _level_violations(net: Network, shapes) -> list[str]:
    """Overlap lines, then coverage lines for divisor and prime, for every level.

    A batch of _level_batches at a time, its codes level * span + position
    (_shifted), span one past the largest position named. When the batch
    fits, a bitmap passes it if its codes set as many bits as there are
    codes. Otherwise the batch's sorted codes give its repeats, so no array
    is sized by span; only levels with a repeat are gone through one by one.
    Without repeats, m rows of k distinct positions in [0, N) cover all N
    exactly when m * k = N.
    """
    n = net.n
    # rows increase, so each group's largest position is in its last column
    span = 1 + max((int(idx[:, -1].max()) for idx in net.arity_groups().values()), default=0)
    distinct = [m * k for m, k in shapes]
    v = []
    for first, counts, rows in _level_batches(net, span):
        codes = _shifted(rows, counts, span).ravel(order="K")
        if span <= _LEVEL_SLOTS:
            # about five times faster than sorting, for a batch that passes
            seen = np.zeros(len(counts) * span, dtype=bool)
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
                distinct[first + at] -= int(lost[at])
                v.append(f"level {first + at}: comparators overlap at {(part - at * span).tolist()}")
    if net.builder in (Builder.DIVISOR, Builder.PRIME):
        v += [f"level {li}: does not cover all {n} positions" for li, c in enumerate(distinct) if c < n]
    return v


# Most bytes one array of a network or of its checks may take, an arity
# group, the N*N pair bitmap or a partial-rank table, and the bytes of a
# network's JSON text or of its DOT text's position lines. 2**31 admits a
# binary network for N up to 16384 and a bitmap for N up to 46340.
_CHECK_BYTES = 2**31


def _within_budget(nbytes: int, n: int) -> None:
    if nbytes > _CHECK_BYTES:
        raise DimensionError(
            f"N = {n} needs {nbytes} bytes in one array, more than {_CHECK_BYTES}"
        )


# Most codes in one block of _pair_codes
_PAIR_CHUNK = 2**16


def _pair_codes(net: Network):
    """Every comparator's pairs (i, j), i < j, as codes i*N + j, in blocks,
    each with its number of rows.

    A block holds at most _PAIR_CHUNK codes, unless one shift of one row
    alone holds more; and a block of one row holds no code twice. A k-ary
    group goes by shifts: for s = 1 .. k//2, index column c paired with
    column c + s mod k names every pair of a row once, except that the shift
    k/2 of an even k names each of its pairs twice and so takes its first
    k/2 columns only. A block holds as many shifts of the group's M rows as
    fit, or one shift of a range of rows where one shift of all M holds more
    than _PAIR_CHUNK codes, so the group costs about M*k(k-1)/2 / _PAIR_CHUNK
    blocks, not k-1.
    """
    n = net.n
    for k, idx in net.arity_groups().items():
        t = idx.T  # C order: index column c is the contiguous row t[c]
        m = t.shape[1]
        full = (k - 1) // 2  # the shifts below k/2, k pairs a row each
        rows = min(m, max(1, _PAIR_CHUNK // k))
        step = max(1, _PAIR_CHUNK // (rows * k))
        for r in range(0, m, rows):
            u = t[:, r : r + rows]
            for s in range(1, full + 1, step):
                q = min(step, full + 1 - s)
                # other[j, c] is row j + c of doubled: index column c + s + j mod k
                doubled = np.concatenate((u[s:], u[: s + q - 1]))
                other = np.ndarray(
                    (q,) + u.shape, np.int64, doubled, 0, doubled.strides[:1] + doubled.strides
                )
                # min * N + max, as min * (N - 1) + both, with one temporary
                codes = np.minimum(u, other)
                codes *= n - 1
                codes += u
                codes += other
                yield codes.ravel(), u.shape[1]
        if k % 2 == 0:
            h = k // 2
            rows = max(1, _PAIR_CHUNK // h)
            for r in range(0, m, rows):
                half = t[:h, r : r + rows] * n + t[h:, r : r + rows]
                yield half.ravel(), half.shape[1]


def _pair_violations(net: Network) -> list[str]:
    """Lines for pairs of positions not covered exactly once. With none, a
    network without a plan gets one ("rows", k, 1, M) run per arity group.

    The pair total first: only a network that holds N(N-1)/2 pairs gets a
    bitmap. Its rows are strictly increasing, so every code is a pair with
    i < j, and N(N-1)/2 distinct codes then mean that each pair is covered
    exactly once. Only on failure are the pairs counted, in time linear in
    the pairs: a second pass over the same blocks of _pair_codes marks the
    pairs seen twice, the two bitmaps give the first ten bad pairs, and a
    third pass counts how often each of those is covered.
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
        if net._plan is None:
            plan = tuple((("rows", k, 1, len(idx)), idx) for k, idx in net.arity_groups().items())
            object.__setattr__(net, "_plan", plan)
        return []

    # failure path: mark the pairs seen twice, a block at a time; a code
    # repeats one of an earlier block or one of its own
    seen[:] = False
    twice = np.zeros_like(seen)
    for codes, rows in _pair_codes(net):
        twice[codes[seen[codes]]] = True
        if rows > 1:
            twice[_repeats(codes)] = True
        seen[codes] = True
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
    every pair of positions lies in exactly one comparator. A network with a
    plan (builder output, or one that passed once) is not checked again.
    """
    if violations is None:
        violations = [] if net._plan is not None else _pair_violations(net)
    if violations:
        raise ValidationError(f"invalid {net.builder.value} network: {violations[0]}")
    return net


# ---------------------------------------------------------------------------
# serialization


def _unit(text: bytes, at: int = 0) -> int:
    """The uint64 whose 8 bytes in memory are text from byte at on, NUL elsewhere."""
    return int(np.frombuffer(bytes(at) + text + bytes(8 - at - len(text)), dtype=np.uint64)[0])


def _digit_table() -> np.ndarray:
    """The 3-digit chunks v = 0..999 as uint64 units, flat, indexed
    [slot, kind, separator, v]: the chunk right-aligned in bytes 0-2 (slot 0)
    or 3-5 (slot 1), NUL-padded, written blank for 0 (kind 0), as the
    number v (kind 1) or with leading zeros (kind 2), and followed by
    nothing, ', ' or ']}' (separator 0, 1, 2)."""
    number = b"".join(b"%3d" % v for v in range(1000)).replace(b" ", b"\0")
    padded = b"".join(b"%03d" % v for v in range(1000))
    table = np.zeros((2, 3, 3, 1000, 8), dtype=np.uint8)
    for kind, text in enumerate((bytes(3) + number[3:], number, padded)):
        digits = np.frombuffer(text, dtype=np.uint8).reshape(1000, 3)
        for slot in (0, 1):
            for separator, after in enumerate((b"", b", ", b"]}")):
                unit = table[slot, kind, separator]
                unit[:, 3 * slot : 3 * slot + 3] = digits
                unit[:, 3 * slot + 3 : 3 * slot + 3 + len(after)] = np.frombuffer(after, np.uint8)
    return table.view(np.uint64).reshape(-1)


_DIGITS = _digit_table()
# the units a row starts with: its leader (", " between the rows of a level,
# "], [" where a level begins, "[" at the network's first row), then '{"indices": ['
_COMMA, _BREAK, _OPEN = _unit(b", "), _unit(b"], ["), _unit(b"[")
_PREFIX = _unit(b'{"indice'), _unit(b's": [')


def _fields(fields: np.ndarray, values: np.ndarray, chunks: int) -> None:
    """Write values (m, k) into fields (m, k, F) in decimal: chunks 3-digit
    chunks, two to a unit from the most significant, NUL for leading zeros,
    and the last chunk followed by ', ', or by ']}' in a row's last field."""
    k = values.shape[1]
    separator = np.full(k, 1000)
    separator[-1] = 2000
    rest = values
    for top in range(chunks):
        unit, slot = divmod(top, 2)
        scale = 1000 ** (chunks - 1 - top)
        chunk = rest
        if scale > 1:
            chunk, rest = np.divmod(rest, scale)
        # the first chunk has no leading zeros; a later one has them below a
        # nonzero chunk, and is blank above it unless it is the last
        kind = int(chunks == 1) if top == 0 else np.where(values >= 1000 * scale, 2, int(scale == 1))
        code = chunk + (9000 * slot + 3000 * kind + (separator if scale == 1 else 0))
        if slot == 0:
            fields[:, :, unit] = _DIGITS[code]
        else:
            fields[:, :, unit] |= _DIGITS[code]


def _rows_json(rows: np.ndarray, counts: list[int], first: bool) -> str:
    """The text of rows (m, k), whole consecutive levels of one arity group
    of the given row counts, each row with its leader: first marks rows[0]
    as the network's first row.

    Each row is laid out as uint64 units: its leader, the prefix, then k
    fixed-width fields of digits and ', ' or ']}', NUL-padded; one translate
    deletes the padding.
    """
    m, k = rows.shape
    # rows increase, so the largest index is in the last column
    chunks = (len(str(int(rows[:, -1].max()))) + 2) // 3
    units = (chunks + 1) // 2
    out = np.empty((m, 3 + k * units), dtype=np.uint64)
    out[:, 0] = _COMMA
    out[list(itertools.accumulate(counts[:-1], initial=0)), 0] = _BREAK
    if first:
        out[0, 0] = _OPEN
    out[:, 1], out[:, 2] = _PREFIX
    _fields(out[:, 3:].reshape(m, k, units), rows, chunks)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def network_to_json(net: Network) -> str:
    """The network document, byte for byte as json.dumps writes it:
    ``{"n": N, "builder": name, "levels": [[{"indices": [...]}, ...], ...]}``.

    Rows are formatted by numpy, a batch of whole levels at a time, at most
    _LEVEL_SLOTS indices unless one level holds more, from a table of
    3-digit chunks, so memory follows the indices written
    and not the largest position N names. Raises DimensionError, before
    formatting any level, when a bound on the text's bytes from the group
    shapes exceeds the 2**31-byte budget that bounds the checks (binary N
    above 11770).
    """
    _network(net)
    return "".join(_json_pieces(net))


def _json_pieces(net: Network):
    """The text of network_to_json in order: the header, each batch of
    _level_batches, its stride the most indices a level holds, then the
    closing brackets. The budget is checked first."""
    head = f'{{"n": {net.n}, "builder": {json.dumps(net.builder.value)}, "levels": ['
    # a row is '{"indices": [' and ']}, ' around its k indices, each of at
    # most `digits` digits and ', '; a level adds '[', ']' and ', '
    digits = len(str(net.n - 1))
    rows = sum(len(g) * (17 + k * (digits + 2)) for k, g in net.arity_groups().items())
    _within_budget(len(head) + rows + 4 * len(net._shapes) + 2, net.n)
    yield head
    widest = max((m * k for m, k in net._shapes), default=1)
    for first, counts, rows in _level_batches(net, widest):
        yield _rows_json(rows, counts, first == 0)
    yield "]]}" if net._shapes else "]}"


# The header network_to_json writes, N of at most 10 digits: no network has
# more than 2**32 positions, and int() refuses more than 4300 digits.
_HEADER = re.compile(r'\{"n": ([1-9][0-9]{0,9}), "builder": "([a-z]+)", "levels": \[')


def _rebuilt_network(text: str) -> Network | None:
    """The builder network whose network_to_json is text, byte for byte, or None.

    Builder output is a closed-form function of N and the builder, so the
    network the header names is built and kept only if it writes text back
    exactly; then json.loads would have read the same network. Each index
    takes at least 3 bytes, one digit and ', ', so a text shorter than that
    per index of the network it names is given up before anything is built.
    """
    header = _HEADER.match(text)
    if header is None or header[2] not in [b.value for b in Builder]:
        return None
    n, builder = int(header[1]), Builder(header[2])
    if not 2 <= n <= len(text) // 3:
        return None
    if 3 * sum(k * levels * m for _, k, levels, m in _runs(n, builder)) > len(text):
        return None
    try:
        net = _built(n, builder)
        # piece by piece, stopping at the first that differs
        at = 0
        for piece in _json_pieces(net):
            if not text.startswith(piece, at):
                return None
            at += len(piece)
        return net if at == len(text) else None
    except DimensionError:
        # past the budget, such as binary N above 11770: such a text can
        # only come from json.dumps, and its outcome is json.loads's
        return None


_INDICES = operator.itemgetter("indices")


def network_from_json(doc) -> Network:
    """Load a network document (JSON text or its parsed form).

    Text that network_to_json writes for a builder's network is rebuilt from
    its header: the builder's network is built and kept only if
    network_to_json writes the text back byte for byte, so neither a parse
    nor validate_network runs. Any other document, including bytes and a
    hand-built network's text, goes through json.loads, which writes every
    error message.

    Raises ValidationError for a malformed document, for indices that are
    not integers (booleans included), for a level whose comparators differ
    in arity, and for any network that validate_network rejects; and, as
    validate_network does, DimensionError when checking the network would
    exceed the check's memory budget (a right pair total with N above
    46340).
    """
    net = _rebuilt_network(doc) if isinstance(doc, str) else None
    return _network_from_doc(doc) if net is None else net


def _network_from_doc(doc) -> Network:
    """network_from_json through json.loads, for any document."""
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        if not isinstance(doc, Mapping):
            raise TypeError(f"expected an object, got {type(doc).__name__}")
        n, builder = doc["n"], doc["builder"]
        levels = [list(map(_INDICES, level)) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    net = Network(n, levels, builder)
    return _require_valid(net, validate_network(net).violations)


def network_to_dot(net: Network) -> str:
    """Graphviz rendering: one cluster per level, one node per comparator.

    Each input position feeds its comparators; every comparator feeds the
    shared adder node that sums the partial ranks. Raises DimensionError,
    before writing anything, when the node lines of the N positions would
    exceed the 2**31-byte budget that bounds the checks: the one part of
    the text that grows with N alone, not with the indices the network
    holds, so that one comparator on 2**32 positions is refused at once.
    """
    _network(net)
    # each line is 34 bytes and the position twice
    _within_budget(net.n * (34 + 2 * len(str(net.n - 1))), net.n)
    out = ["digraph ranknet {", "  rankdir=LR;"]
    out += [f'  x{i} [label="x{i}", shape=plaintext];' for i in range(net.n)]
    out.append('  adder [label="+", shape=doublecircle];')
    levels = list(_row_ranges(net.arity_groups(), net._shapes))
    for li, idx in enumerate(levels):
        m, k = idx.shape
        node = f'    c{li}_%d [label="C_{k}", shape=box];'
        out += [f"  subgraph cluster_L{li} {{", f'    label="L{li}";']
        out.append("\n".join([node] * m) % tuple(range(m)))
        out.append("  }")
    for li, idx in enumerate(levels):
        m, k = idx.shape
        # per comparator c: "x{i} -> c" for each of its k indices i, then "c -> adder"
        edges = "\n".join([f"  x%d -> c{li}_%d;"] * k + [f"  c{li}_%d -> adder;"])
        args = np.repeat(np.arange(m)[:, None], 2 * k + 1, axis=1)
        args[:, 0 : 2 * k : 2] = idx
        out.append("\n".join([edges] * m) % tuple(args.ravel().tolist()))
    out.append("}")
    return "\n".join(out) + "\n"
