"""Comparator network construction, validation, and serialization.

A network is a sequence of levels. A level is one read-only (m, k) int64
array: m comparators of arity k, one strictly increasing row of global
indices each. The builders generate these arrays in closed form from the
two index vectors

    w(j)      = [jD, jD+1, ..., jD+D-1]
    v(j, k)_i = (j + k*i) mod D + D*i,    i = 0..d-1

and every network lays its levels out once, when it is made, as one array
per arity for the engine. Three builders are provided:

* binary_network  -- one binary comparator per unordered pair, scheduled
  into rounds by the circle method so each round's comparators are disjoint.
* divisor_network -- one level of D-ary block comparators followed by D
  levels of d-ary cross-block comparators, where d is the smallest prime
  factor of N and D = N/d.
* prime_network   -- divisor decomposition applied recursively until every
  comparator arity is a prime factor of N; sibling sub-networks at equal
  depth share levels so each level spans all N positions.

Networks never move data: every comparator emits local stable ranks and the
engine adds them into a global accumulator.
"""

from __future__ import annotations

import itertools
import json
import numbers
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class _Comparators(Sequence):
    """A level's rows as Comparator objects, made only when accessed."""

    __slots__ = ("_rows",)

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __getitem__(self, i) -> Comparator:
        return Comparator(tuple(self._rows[operator.index(i)].tolist()))

    def __iter__(self):
        return (Comparator(tuple(row)) for row in self._rows.tolist())


def _index_array(rows) -> np.ndarray:
    """An integer array, or nested lists of integers, as a read-only (m, k)
    int64 array with m >= 1.

    An array is viewed, not copied, so the caller's array stays writable.
    """
    if isinstance(rows, np.ndarray):
        a = rows.view()
    else:
        try:
            types = set(map(type, itertools.chain.from_iterable(rows)))
        except TypeError as exc:
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
        rows = self.indices
        if isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], Comparator):
            rows = [c.indices for c in rows]
        object.__setattr__(self, "indices", _index_array(rows))

    @property
    def arity(self) -> int:
        return self.indices.shape[1]

    @property
    def comparators(self) -> Sequence[Comparator]:
        return _Comparators(self.indices)


@dataclass(frozen=True, eq=False)
class Network:
    """An immutable comparator network on N positions.

    ``levels`` may be given as Level objects or as anything Level accepts.
    The network copies all comparator indices once, into one read-only
    (M, k) array per arity k (the layout the engine executes), and its
    levels become views of those arrays. N must be an integer from 1 to
    2**32, the builder a Builder or its name, and each comparator must have
    arity at least 2 and strictly increasing indices in [0, N); anything
    else raises ValidationError. validate_network checks the rest of the
    topology.
    """

    n: int
    levels: tuple[Level, ...]
    builder: Builder
    _groups: Mapping[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        # beyond 2**32 positions no network fits in memory, and validation's
        # level-tagged int64 positions could overflow
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 1 <= n <= 2**32:
            raise ValidationError(f"n must be an integer from 1 to 2**32, got {n!r}")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "builder", _builder(self.builder))
        parts: dict[int, list[np.ndarray]] = {}
        shapes = []
        for li, level in enumerate(self.levels):
            try:
                idx = (level if isinstance(level, Level) else Level(level)).indices
            except ValidationError as exc:
                raise ValidationError(f"level {li}: {exc}") from None
            parts.setdefault(idx.shape[1], []).append(idx)
            shapes.append(idx.shape)
        groups = {}
        for k, arrays in sorted(parts.items()):
            if k < 2:
                raise ValidationError(f"comparator arity {k} < 2")
            g = np.concatenate(arrays)
            if g.min(initial=0) < 0 or g.max(initial=-1) >= self.n:
                raise ValidationError(f"comparator index out of range [0, {self.n})")
            if not (g[:, 1:] > g[:, :-1]).all():
                raise ValidationError("comparator indices must be strictly increasing")
            g.flags.writeable = False
            groups[k] = g
        # each arity's levels are consecutive row ranges of its array
        start = dict.fromkeys(groups, 0)
        levels = []
        for m, k in shapes:
            levels.append(Level(groups[k][start[k] : start[k] + m]))
            start[k] += m
        object.__setattr__(self, "levels", tuple(levels))
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


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n (n itself when n is prime)."""
    if n < 2:
        raise DimensionError(f"need N >= 2, got {n}")
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
    return n >= 2 and smallest_prime_factor(n) == n


def ascending_factorization(n: int) -> list[int]:
    """Prime factors of n in nondecreasing order, with multiplicity."""
    if n < 2:
        raise DimensionError(f"need N >= 2, got {n}")
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
    The scalar form of _cross_indices.
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


def _cross_indices(d: int, D: int) -> np.ndarray:
    """All cross-block index vectors: a (D, D, d) array whose [k, j] row is v(j, k)."""
    # Over j, (j + k*i) mod D is 0..D-1 rotated by k*i mod D: a row of the
    # (D, D) window view of one period, gathered instead of computed
    rotations = sliding_window_view(np.arange(2 * D - 1) % D, D)
    i = np.arange(d)
    v = rotations[np.arange(D)[:, None] * i % D]  # [k, i, j]
    v += D * i[:, None]
    return v.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# builders


def _size(n) -> int:
    """A builder's N as an int: an integer (numpy's included) of at least 2."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DimensionError(f"N must be an integer, got {n!r}") from None
    if n < 2:
        raise DimensionError(f"need N >= 2, got {n}")
    return n


def binary_network(n: int) -> Network:
    """All N(N-1)/2 binary comparators, one per unordered pair.

    Rounds come from the circle method: N-1 rounds of N/2 pairs for even N,
    N rounds of (N-1)/2 pairs for odd N (one position idle per round).
    """
    n = _size(n)
    m = n + n % 2  # an odd N gets an idle slot, position m-1
    c, p = m - 1, m // 2 - 1
    # Round r pairs the hub m-1 with r, and (r+i) mod c with (r-i) mod c for
    # i = 1..p. Both sequences rotate by one per round, so their (c, p)
    # grids are windows over one period, taken without copying.
    up = sliding_window_view(np.arange(1, c + p) % c, p)
    down = sliding_window_view(np.arange(-p, c) % c, p)[:c, ::-1]
    rounds = np.empty((c, p + 1, 2), dtype=np.int64)
    rounds[:, 0, 0] = np.arange(c)
    rounds[:, 0, 1] = m - 1
    np.minimum(up, down, out=rounds[:, 1:, 0])
    np.maximum(up, down, out=rounds[:, 1:, 1])
    return Network(n, list(rounds if m == n else rounds[:, 1:]), Builder.BINARY)


def divisor_network(n: int) -> Network:
    """One level of d D-ary block comparators, then D levels of d-ary ones.

    d is the smallest prime factor of N and D = N/d; the cross-block levels
    are indexed by k = 0..D-1. Every unordered pair is covered exactly once:
    same-block pairs by the D-ary level, cross-block pairs by a unique (j, k)
    since differences below d are invertible mod D. Prime N degenerates to a
    single N-ary comparator.
    """
    n = _size(n)
    d = smallest_prime_factor(n)
    if d == n:
        return Network(n, [np.arange(n)[None, :]], Builder.DIVISOR)
    D = n // d
    blocks = np.arange(n).reshape(d, D)  # row j is w(j)
    return Network(n, [blocks, *_cross_indices(d, D)], Builder.DIVISOR)


def _prime_levels(blocks: np.ndarray) -> list[np.ndarray]:
    """Levels of the prime network on every row of a (B, m) array of positions.

    All rows share one decomposition, so the B sibling sub-networks come out
    merged: each level holds row 0's comparators, then row 1's, and so on.
    """
    B, m = blocks.shape
    d = smallest_prime_factor(m)
    if d == m:
        return [blocks]
    D = m // d
    levels = _prime_levels(blocks.reshape(B * d, D))
    cross = blocks[:, _cross_indices(d, D)]  # [b, k, j] is v(j, k) within block b
    levels.extend(cross.transpose(1, 0, 2, 3).reshape(D, B * D, d))
    return levels


def prime_network(n: int) -> Network:
    """Recursive divisor decomposition down to prime-arity comparators."""
    n = _size(n)
    return Network(n, _prime_levels(np.arange(n)[None, :]), Builder.PRIME)


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
    and index order are checked when the network is made.
    """
    v: list[str] = []
    n = net.n
    m, k = np.array([level.indices.shape for level in net.levels], dtype=np.int64).reshape(-1, 2).T
    if net.builder == Builder.PRIME:
        for li, arity in enumerate(k.tolist()):
            if not is_prime(arity):
                v.append(f"level {li}: non-prime arity {arity}")

    # per-level overlap and coverage: how often each level touches each
    # position, from one count of level-tagged positions
    tags = [np.empty(0, dtype=np.int64)]  # a network may have no levels
    tags += [li * n + level.indices.ravel() for li, level in enumerate(net.levels)]
    tagged, times = np.unique(np.concatenate(tags), return_counts=True)
    level_of, pos = np.divmod(tagged, n)
    over = times > 1
    lis, starts = np.unique(level_of[over], return_index=True)
    for li, p in zip(lis.tolist(), np.split(pos[over], starts[1:])):
        v.append(f"level {li}: comparators overlap at {p.tolist()}")
    if net.builder in (Builder.DIVISOR, Builder.PRIME):
        for li in np.flatnonzero(np.bincount(level_of, minlength=k.size) < n):
            v.append(f"level {li}: does not cover all {n} positions")

    # pair coverage: the pair total first, so that the (N, N) count below is
    # made only for a network that holds all N(N-1)/2 pairs
    total, expected = int((m * k * (k - 1) // 2).sum()), n * (n - 1) // 2
    if total != expected:
        v.append(f"comparators cover {total} pairs, not the {expected} of {n} positions")
        return ValidationReport(False, v)
    counts = np.zeros(n * n, dtype=np.int64)
    for arity, idx in net.arity_groups().items():
        a, b = np.triu_indices(arity, 1)
        counts += np.bincount((idx[:, a] * n + idx[:, b]).ravel(), minlength=n * n)
    covered = counts.reshape(n, n)
    bad = np.argwhere(np.triu(covered != 1, 1))
    for i, j in bad[:10].tolist():
        v.append(f"pair ({i},{j}) covered {covered[i, j]} times")
    if len(bad) > 10:
        v.append(f"... and {len(bad) - 10} more pair-coverage violations")
    return ValidationReport(not v, v)


# ---------------------------------------------------------------------------
# serialization


def _level_json(idx: np.ndarray) -> str:
    m, k = idx.shape
    row = '{"indices": [' + ", ".join(["%d"] * k) + "]}"
    return "[" + ", ".join([row] * m) % tuple(idx.ravel().tolist()) + "]"


def network_to_json(net: Network) -> str:
    """The network document, byte for byte as json.dumps writes it:
    ``{"n": N, "builder": name, "levels": [[{"indices": [...]}, ...], ...]}``.
    """
    levels = ", ".join(_level_json(level.indices) for level in net.levels)
    builder = json.dumps(net.builder.value)
    return f'{{"n": {net.n}, "builder": {builder}, "levels": [{levels}]}}'


_INDICES = operator.itemgetter("indices")


def network_from_json(doc) -> Network:
    """Load a network document (JSON text or its parsed form).

    Raises ValidationError for a malformed document, for indices that are
    not integers (booleans included), for a level whose comparators differ
    in arity, and for any network that validate_network rejects.
    """
    try:
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
        n, builder = doc["n"], doc["builder"]
        levels = [list(map(_INDICES, level)) for level in doc["levels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    net = Network(n, levels, builder)
    report = validate_network(net)
    if not report.ok:
        raise ValidationError(f"invalid {net.builder.value} network: {report.violations[0]}")
    return net


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
