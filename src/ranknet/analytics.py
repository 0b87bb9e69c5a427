"""Counting sequences for prime-partitioned rank-sort networks.

Everything here is exact integer arithmetic: level and comparator counts of
the recursive prime decomposition, the addition complexity, the total
comparator sequence, and the independent Maundy-cake (OEIS A006022)
recurrence that the level count provably equals.
"""

from __future__ import annotations

import io
import csv
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .netbuild import _integer, _size, ascending_factorization, is_prime

__all__ = [
    "ComplexityProfile",
    "level_coefficients",
    "comparator_coefficients",
    "partial_rank_count",
    "addition_complexity",
    "total_comparators",
    "maundy_a",
    "prime_power_levels",
    "two_prime_levels",
    "binary_equivalent",
    "complexity_profile",
    "profile_csv",
]


def level_coefficients(n: int) -> dict[int, int]:
    """Number of levels of p-ary comparators, per unique prime p of n.

    The coefficient of prime p_i is (n / prod_{j<=i} p_j^{k_j}) *
    (p_i^{k_i} - 1) / (p_i - 1).
    """
    coeffs: dict[int, int] = {}
    rest = n = _size(n)
    for p, k in Counter(ascending_factorization(n)).items():
        rest //= p**k
        coeffs[p] = rest * (p**k - 1) // (p - 1)
    return coeffs


def comparator_coefficients(n: int) -> dict[int, int]:
    """Number of p-ary comparators in the prime-partitioned network, per prime."""
    n = _size(n)
    return {p: c * (n // p) for p, c in level_coefficients(n).items()}


def partial_rank_count(n: int) -> int:
    """|L_N|: number of partial-rank columns to be added, i.e. total levels.

    The sum of the level coefficients, which equals the sum over the
    ascending factorization f_1 <= ... <= f_m of n / (f_1 ... f_i).
    """
    return sum(level_coefficients(n).values())


def addition_complexity(n: int) -> int:
    """Number of vector additions needed to reduce all partial ranks: |L_N| - 1."""
    return partial_rank_count(n) - 1


def total_comparators(n: int) -> int:
    """|C_N|: comparator count of the prime-partitioned network.

    The sum of the comparator coefficients, which equals the sum of
    n^2 / (f_i * f_1...f_i) over the ascending factorization; defined as 0
    for n = 1 to match the sequence's leading term.
    """
    n = _size(n, 1)
    if n == 1:
        return 0
    return sum(comparator_coefficients(n).values())


def maundy_a(n: int) -> int:
    """Maundy-cake value a(n) = max over divisors d > 1 of d * a(n/d) + 1.

    a(1) = 0. Deliberately iterates over every nontrivial divisor so it
    stays an independent oracle for partial_rank_count rather than a
    restatement of its formula.
    """
    return _maundy(_size(n, 1))


@lru_cache(maxsize=None)
def _maundy(n: int) -> int:
    if n == 1:
        return 0
    best = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            best = max(best, d * _maundy(n // d) + 1, (n // d) * _maundy(d) + 1)
        d += 1
    return max(best, n * _maundy(1) + 1)


def prime_power_levels(p: int, k: int) -> int:
    """Level count for n = p^k in closed form: (p^k - 1) / (p - 1)."""
    p, k = _integer(p), _integer(k)
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if k < 1:
        raise DomainError(f"exponent must be >= 1, got {k}")
    return (p**k - 1) // (p - 1)


def two_prime_levels(p1: int, k1: int, p2: int, k2: int) -> dict[int, int]:
    """Level coefficients for n = p1^k1 * p2^k2 in closed form, p1 < p2."""
    p1, k1, p2, k2 = map(_integer, (p1, k1, p2, k2))
    if not (is_prime(p1) and is_prime(p2)) or p1 >= p2:
        raise DomainError(f"need primes p1 < p2, got {p1}, {p2}")
    if k1 < 1 or k2 < 1:
        raise DomainError("exponents must be >= 1")
    return {
        p1: p2**k2 * (p1**k1 - 1) // (p1 - 1),
        p2: (p2**k2 - 1) // (p2 - 1),
    }


def binary_equivalent(n: int) -> int:
    """Binary comparison count any decomposition conserves: N(N-1)/2."""
    n = _size(n, 1)
    return n * (n - 1) // 2


@dataclass
class ComplexityProfile:
    n: int
    level_coeffs: dict[int, int]
    comparator_coeffs: dict[int, int]
    partial_rank_count: int
    addition_complexity: int
    total_comparators: int
    binary_equivalent: int


def complexity_profile(n: int) -> ComplexityProfile:
    lev = level_coefficients(n)
    comp = comparator_coefficients(n)
    return ComplexityProfile(
        n=n,
        level_coeffs=lev,
        comparator_coeffs=comp,
        partial_rank_count=sum(lev.values()),
        addition_complexity=sum(lev.values()) - 1,
        total_comparators=sum(comp.values()),
        binary_equivalent=binary_equivalent(n),
    )


def profile_csv(max_n: int, per_prime: bool = False) -> str:
    """CSV dump of the counting sequences for N = 2..max_n.

    Columns: N, levels_total, comps_total, addition_complexity, then one
    column per prime <= max_n with the level coefficient when per_prime is
    set.
    """
    max_n = _size(max_n)
    primes = [p for p in range(2, max_n + 1) if is_prime(p)] if per_prime else []
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(
        ["N", "levels_total", "comps_total", "addition_complexity"]
        + [f"L_{p}" for p in primes]
    )
    for n in range(2, max_n + 1):
        prof = complexity_profile(n)
        row = [
            n,
            prof.partial_rank_count,
            prof.total_comparators,
            prof.addition_complexity,
        ]
        row += [prof.level_coeffs.get(p, 0) for p in primes]
        w.writerow(row)
    return buf.getvalue()
