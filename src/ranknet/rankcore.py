"""Rank comparators, comparison matrices, and the difference-matrix machinery.

A k-ary rank comparator never moves its inputs: it emits, for each input,
the position that input would occupy in a stable sort of the k values.
Summing row entries of the pairwise comparison matrix gives exactly those
ranks, which is what lets a full sort be decomposed into independent
comparator banks whose partial ranks are simply added.

Every array argument passes one gate, netbuild._array: a ragged sequence,
or one of the wrong dimension count, raises DimensionError naming the
argument. Then each function states what it accepts. Keys must be finite
real scalars (as_keys). A comparison matrix holds booleans or numbers
equal to 0 or 1, read as booleans; any other entry raises InvalidKey. A
matrix to rank holds integers within int64. comparison_matrix, like
delta_matrix, raises DimensionError before allocating an array past
netbuild's one-array budget.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionError, DomainError, InvalidKey
from .netbuild import _array, _int64_array, _size, _within_budget

__all__ = [
    "stable_rank",
    "comparison_matrix",
    "row_sum_ranks",
    "is_realizable",
    "delta_matrix",
    "half_vectorize",
    "delta_identity_check",
    "integer_matrix_rank",
    "as_keys",
]


def as_keys(x) -> np.ndarray:
    """Validate and convert a key sequence to a 1-D numpy array.

    Keys must be finite, totally ordered scalars. NaN and infinities are
    rejected rather than given an arbitrary ordering, and so is an integer
    of a sequence that numpy would round to a float64: one of 2**53 or
    more beside a decimal, or past int64 beside small integers. An ndarray
    is taken as it is.
    """
    a = _array(x, "keys", 1)
    if a.size == 0:
        raise DimensionError("key sequence must be nonempty")
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise InvalidKey("keys must be finite (no NaN or infinity)")
        # float64 holds every integer below 2**53 exactly
        if not isinstance(x, np.ndarray) and (np.abs(a) >= 2**53).any():
            # a Python int and float compare exactly
            for key, image in zip(x, a.tolist()):
                if isinstance(key, numbers.Integral) and int(key) != image:
                    raise InvalidKey(f"integer {key} cannot be held exactly as a float64")
    elif a.dtype.kind not in "iu":
        raise InvalidKey(f"keys must be real scalars, got dtype {a.dtype}")
    return a


def stable_rank(x) -> np.ndarray:
    """Stable rank of every element of x.

    rank[i] = #{j : x[j] < x[i]} + #{j < i : x[j] == x[i]}, i.e. ties are
    broken by original position, so the result is always a permutation of
    0..N-1 and applying it sorts x stably.
    """
    a = as_keys(x)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=np.int64)
    ranks[order] = np.arange(a.size)
    return ranks


def comparison_matrix(x) -> np.ndarray:
    """Pairwise comparison matrix of x.

    Upper triangle holds (x[i] > x[j]); the lower triangle is the boolean
    complement of the transposed entry; the diagonal is 0. The complemented
    lower triangle is what makes ranking of equal keys stable. Each of its
    N x N boolean temporaries must fit the one-array budget.
    """
    a = as_keys(x)
    _within_budget(a.size * a.size, a.size)
    gt = a[:, None] > a[None, :]
    return np.triu(gt, 1) | np.tril(~gt.T, -1)


def _check_cmp(c) -> np.ndarray:
    c = _array(c, "comparison matrix", 2)
    if c.shape[0] != c.shape[1]:
        raise DimensionError(f"comparison matrix must be square, got {c.shape}")
    if c.dtype != bool:
        # c == 0 compares each entry of an object array as Python does
        if c.dtype.kind not in "iufO" or not ((c == 0) | (c == 1)).all():
            raise InvalidKey("comparison matrix entries must be booleans or numbers equal to 0 or 1")
        c = c.astype(bool)
    if c.diagonal().any():
        raise InvalidKey("comparison matrix diagonal must be zero")
    off = ~np.eye(c.shape[0], dtype=bool)
    if not (c[off] ^ c.T[off]).all():
        raise InvalidKey("comparison matrix must be 1-bit skew-symmetric")
    return c


def row_sum_ranks(c) -> np.ndarray:
    """Row sums of a comparison matrix.

    For a matrix built from real keys this equals stable_rank of those keys;
    for an arbitrary skew-symmetric boolean matrix it may fail to be a
    permutation (see is_realizable).
    """
    c = _check_cmp(c)
    return c.sum(axis=1, dtype=np.int64)


def is_realizable(c) -> bool:
    """Whether some key sequence produces this comparison matrix.

    Criterion: the row sums form a permutation of 0..N-1. This is the
    transitive-tournament score condition; the classic 4x4 counterexample
    with row sums [1,2,2,1] is rejected.
    """
    sums = row_sum_ranks(c)
    n = sums.size
    return bool(np.array_equal(np.sort(sums), np.arange(n)))


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of all pairs i < j in the order (0,1),(0,2),(1,2),
    (0,3),...: np.tril_indices walks (1,0),(2,0),(2,1),..., transposed."""
    j, i = np.tril_indices(n, -1)
    return i, j


def delta_matrix(n: int) -> np.ndarray:
    """Signed pair-difference matrix of size N x N(N-1)/2.

    Column for the pair (i, j), i < j, is e_i - e_j; columns are ordered
    (0,1),(0,2),(1,2),(0,3),... This is the incidence matrix of the
    complete graph, so every column sums to zero and the rank is N-1.
    Satisfies the recursion D_N = [[D_{N-1}, I], [0, -1^T]] with
    D_2 = [1; -1].
    """
    n = _size(n)
    _within_budget(8 * n * (n * (n - 1) // 2), n)
    i, j = _pairs(n)
    cols = np.arange(i.size)
    d = np.zeros((n, i.size), dtype=np.int64)
    d[i, cols], d[j, cols] = 1, -1
    return d


def half_vectorize(c) -> np.ndarray:
    """Strict upper triangle of a comparison matrix as a flat vector, in
    the column order of delta_matrix."""
    c = _check_cmp(c)
    return c[_pairs(c.shape[0])]


def delta_identity_check(x) -> bool:
    """Verify C_N 1 = Delta_N c + n on a concrete key sequence.

    This is the identity behind the uniqueness of the summed ranks: the
    row sums of the comparison matrix decompose into a zero-column-sum
    combination of pair indicators plus the identity rank vector 0..N-1.
    """
    a = as_keys(x)
    n = a.size
    if n == 1:
        return True
    c = comparison_matrix(a)
    lhs = row_sum_ranks(c)
    rhs = delta_matrix(n) @ half_vectorize(c).astype(np.int64) + np.arange(n)
    return bool(np.array_equal(lhs, rhs))


def integer_matrix_rank(m) -> int:
    """Exact rank of an integer matrix via fraction-free (Bareiss) elimination.

    All arithmetic stays in int64 and the divisions are exact. DomainError
    is raised for an entry that is not an integer within int64, and for an
    elimination step on an entry of magnitude 2**31 or more, whose products
    could overflow.
    """
    try:
        a = _int64_array(m, _array(m, "a matrix", 2))
    except OverflowError as exc:
        raise DomainError(f"entry {exc.args[0]} is past int64") from None
    if a.size and a.dtype.kind not in "biu":
        raise DomainError(f"entries must be integers within int64, got dtype {a.dtype}")
    # a copy, so the caller's array is never written; a uint64 entry past
    # int64 wraps to a nonzero one, refused if eliminated
    a = a.astype(np.int64)
    rows, cols = a.shape
    r = 0
    prev = 1
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = nz[0] + r
        if p != r:
            a[[r, p]] = a[[p, r]]
        piv = a[r, c]
        if r + 1 < rows:
            # min and max, as np.abs(-2**63) overflows
            if a[r:].min() <= -(2**31) or a[r:].max() >= 2**31:
                raise DomainError("an entry of magnitude 2**31 or more could overflow int64")
            sub = a[r + 1 :]
            a[r + 1 :] = (sub * piv - np.outer(sub[:, c], a[r])) // prev
        prev = piv
        r += 1
    return r
