"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import functools
import time
from collections import Counter
from itertools import permutations

import numpy as np

from ranknet import (
    Builder,
    build_network,
    comparator_coefficients,
    comparison_matrix,
    delta_identity_check,
    delta_matrix,
    divisor_network,
    execute,
    integer_matrix_rank,
    is_realizable,
    level_coefficients,
    maundy_a,
    partial_rank_count,
    partial_rank_table,
    prime_network,
    row_sum_ranks,
    stable_rank,
    total_comparators,
)

# 50-term comparator-count sequence, N = 1..50
SEQ_50 = [
    0, 1, 1, 6, 1, 11, 1, 28, 12, 27, 1, 58, 1, 51, 28, 120, 1, 105, 1, 154,
    52, 123, 1, 260, 30, 171, 117, 298, 1, 281, 1, 496, 124, 291, 54, 534,
    1, 363, 172, 708, 1, 545, 1, 730, 309, 531, 1, 1096, 56, 685,
]

# level coefficients per prime and totals, N = 2..16
TABLE_LEVELS = {
    2: ({2: 1}, 1),
    3: ({3: 1}, 1),
    4: ({2: 3}, 3),
    5: ({5: 1}, 1),
    6: ({2: 3, 3: 1}, 4),
    7: ({7: 1}, 1),
    8: ({2: 7}, 7),
    9: ({3: 4}, 4),
    10: ({2: 5, 5: 1}, 6),
    11: ({11: 1}, 1),
    12: ({2: 9, 3: 1}, 10),
    13: ({13: 1}, 1),
    14: ({2: 7, 7: 1}, 8),
    15: ({3: 5, 5: 1}, 6),
    16: ({2: 15}, 15),
}

# comparator coefficients per prime and totals, N = 2..16
TABLE_COMPARATORS = {
    2: ({2: 1}, 1),
    3: ({3: 1}, 1),
    4: ({2: 6}, 6),
    5: ({5: 1}, 1),
    6: ({2: 9, 3: 2}, 11),
    7: ({7: 1}, 1),
    8: ({2: 28}, 28),
    9: ({3: 12}, 12),
    10: ({2: 25, 5: 2}, 27),
    11: ({11: 1}, 1),
    12: ({2: 54, 3: 4}, 58),
    13: ({13: 1}, 1),
    14: ({2: 49, 7: 2}, 51),
    15: ({3: 25, 5: 3}, 28),
    16: ({2: 120}, 120),
}

TABLE1_X = [5, 12, 2, 3, 5, 7, 8, 6]
TABLE1_PI = [2, 7, 0, 1, 3, 5, 6, 4]
# printed partial-rank rows; the i=5 quaternary entry is corrected 0 -> 2
# (the printed row cannot sum to its own printed rank otherwise)
TABLE1_QUATERNARY = [2, 3, 0, 1, 0, 2, 3, 1]
TABLE1_BINARY_ROWS = [
    [0, 0, 0, 0],
    [1, 1, 1, 1],
    [0, 0, 0, 0],
    [0, 0, 0, 0],
    [1, 1, 1, 0],
    [1, 1, 1, 0],
    [1, 0, 1, 1],
    [1, 1, 0, 1],
]

S4 = [[0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({desc}): FAIL")
                raise
            print(f"criterion {num} ({desc}): PASS")

        return wrapper

    return deco


def random_keys(rng, n):
    """Half the draws contain duplicates (small integer range)."""
    if rng.random() < 0.5:
        return rng.integers(0, max(n // 2, 2), size=n)
    return rng.standard_normal(n)


@criterion(1, "Table 1 reproduction, runtime < 1 ms")
def test_criterion_1_table1():
    net = divisor_network(8)
    pi = execute(net, TABLE1_X)
    assert pi.tolist() == TABLE1_PI

    table = partial_rank_table(net, TABLE1_X)
    cols = [col.tolist() for _, col in table.columns]
    assert cols[0] == TABLE1_QUATERNARY
    binary_cols = cols[1:]
    for i in range(8):
        got = sorted(col[i] for col in binary_cols)
        assert got == sorted(TABLE1_BINARY_ROWS[i])
    assert table.total.tolist() == TABLE1_PI

    execute(net, TABLE1_X)  # warm caches
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        execute(net, TABLE1_X)
        times.append(time.perf_counter() - t0)
    assert min(times) < 1e-3, f"execute took {min(times) * 1e3:.3f} ms"


@criterion(2, "first 50 comparator-count terms")
def test_criterion_2_sequence():
    assert [total_comparators(n) for n in range(1, 51)] == SEQ_50


@criterion(3, "Tables 2 and 3, N = 2..16")
def test_criterion_3_tables():
    for n in range(2, 17):
        coeffs, total = TABLE_LEVELS[n]
        assert level_coefficients(n) == coeffs
        assert partial_rank_count(n) == total
        coeffs, total = TABLE_COMPARATORS[n]
        assert comparator_coefficients(n) == coeffs
        assert total_comparators(n) == total


@criterion(4, "Maundy identity up to 10000, runtime < 10 s")
def test_criterion_4_maundy():
    t0 = time.perf_counter()
    for n in range(2, 10001):
        assert maundy_a(n) == partial_rank_count(n), f"mismatch at N={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


@criterion(5, "bounds with power-of-2 extremes up to 10000")
def test_criterion_5_bounds():
    for n in range(2, 10001):
        ln = partial_rank_count(n)
        cn = total_comparators(n)
        assert 1 <= ln <= n - 1
        assert 1 <= cn <= n * (n - 1) // 2
        is_pow2 = n & (n - 1) == 0
        assert (ln == n - 1) == is_pow2
        assert (cn == n * (n - 1) // 2) == is_pow2


@criterion(6, "oracle equivalence across builders")
def test_criterion_6_oracle():
    rng = np.random.default_rng(2024)
    for n in list(range(2, 129)) + [210, 243, 256, 1024]:
        nets = [build_network(n, b) for b in Builder]
        for _ in range(200):
            x = random_keys(rng, n)
            expect = stable_rank(x)
            assert np.array_equal(row_sum_ranks(comparison_matrix(x)), expect)
            for net in nets:
                assert np.array_equal(execute(net, x, workers=1), expect)
    # exhaustive over all permutations for small n
    for n in range(2, 8):
        nets = [build_network(n, b) for b in Builder]
        for perm in permutations(range(n)):
            x = list(perm)
            expect = stable_rank(x)
            for net in nets:
                assert np.array_equal(execute(net, x, workers=1), expect)


@criterion(7, "pair coverage and binary conservation up to 512")
def test_criterion_7_pair_coverage():
    for n in range(2, 513):
        for builder in Builder:
            net = build_network(n, builder)
            codes = []
            binary_equiv = 0
            for k, idx in net.arity_groups().items():
                binary_equiv += idx.shape[0] * k * (k - 1) // 2
                a, b = np.triu_indices(k, 1)
                codes.append((idx[:, a] * n + idx[:, b]).ravel())
            counts = np.bincount(np.concatenate(codes), minlength=n * n)
            iu, ju = np.triu_indices(n, 1)
            assert (counts[iu * n + ju] == 1).all(), f"n={n} {builder}"
            assert counts.sum() == n * (n - 1) // 2
            assert binary_equiv == n * (n - 1) // 2
            if builder is Builder.PRIME:
                by_arity = {
                    k: idx.shape[0] for k, idx in net.arity_groups().items()
                }
                assert by_arity == comparator_coefficients(n)
                assert len(net.levels) == partial_rank_count(n)


@criterion(8, "difference-matrix machinery up to N = 64")
def test_criterion_8_delta():
    rng = np.random.default_rng(8)
    for n in range(2, 65):
        d = delta_matrix(n)
        assert (d.sum(axis=0) == 0).all()
        assert integer_matrix_rank(d) == n - 1
        for _ in range(50):
            assert delta_identity_check(random_keys(rng, n))


@criterion(9, "realizability: S4 rejected, images accepted, N=4 exhaustive")
def test_criterion_9_realizability():
    assert not is_realizable(S4)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        assert is_realizable(comparison_matrix(random_keys(rng, n)))
    iu = np.triu_indices(4, 1)
    accepted = set()
    expected = set()
    for bits in range(64):
        c = np.zeros((4, 4), dtype=bool)
        c[iu] = [(bits >> t) & 1 for t in range(6)]
        c |= np.tril(~c.T, -1)
        if is_realizable(c):
            accepted.add(bits)
        if sorted(c.sum(axis=1).tolist()) == [0, 1, 2, 3]:
            expected.add(bits)
    assert accepted == expected


@criterion(10, "determinism across worker counts at N = 1024")
def test_criterion_10_determinism():
    rng = np.random.default_rng(10)
    net = prime_network(1024)
    for _ in range(100):
        x = random_keys(rng, 1024)
        r1 = execute(net, x, workers=1)
        r2 = execute(net, x, workers=2)
        r8 = execute(net, x, workers=8)
        assert np.array_equal(r1, r2) and np.array_equal(r1, r8)
